#include "cnf/simplify.h"

#include <algorithm>

namespace berkmin {

std::optional<std::vector<Lit>> normalize_clause(std::vector<Lit> lits) {
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  for (std::size_t i = 1; i < lits.size(); ++i) {
    if (lits[i].var() == lits[i - 1].var()) return std::nullopt;  // l and ~l
  }
  return lits;
}

}  // namespace berkmin
