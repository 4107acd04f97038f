// Clause normalization: the canonical form every solver stores.
//
// Root-level simplification (unit propagation, subsumption and
// self-subsumption) happens inside the solver on its live database — see
// core/inprocess.h, which also serves the CLI's --preprocess round.
#pragma once

#include <optional>
#include <vector>

#include "cnf/literal.h"

namespace berkmin {

// Sorts literals, removes duplicates. Returns std::nullopt if the clause is
// a tautology (contains both l and ~l) and should be dropped.
std::optional<std::vector<Lit>> normalize_clause(std::vector<Lit> lits);

}  // namespace berkmin
