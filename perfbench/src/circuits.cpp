#include "circuits.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace perfbench {

using berkmin::Circuit;
using berkmin::GateKind;

Circuit lockstep_counters(const LockstepParams& params) {
  const int width = params.width;
  if (width < 2 || params.fault_bit < 0 || params.fault_bit >= width) {
    throw std::invalid_argument("lockstep_counters: bad width or fault bit");
  }
  Circuit c;
  const int en = c.add_input();
  std::vector<int> order(static_cast<std::size_t>(2 * width));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  if (params.shuffle_seed != 0) {
    berkmin::Rng rng(params.shuffle_seed);
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.below(i + 1)]);
    }
  }
  std::vector<int> latches(order.size());
  for (const int slot : order) latches[static_cast<std::size_t>(slot)] = c.add_latch();
  const std::vector<int> a(latches.begin(), latches.begin() + width);
  const std::vector<int> b(latches.begin() + width, latches.end());

  // Reference counter: ripple carry, XOR update.
  int carry = en;
  for (int i = 0; i < width; ++i) {
    const int ai = a[static_cast<std::size_t>(i)];
    c.set_latch_input(ai, c.add_xor(ai, carry));
    carry = c.add_and(ai, carry);
  }

  // Second counter: the carry into bit i is the AND of `en` and bits
  // 0..i-1, except that the faulty bit forgets bit i-1.
  int chained = en;  // mux_chain's rippled carry into bit i
  for (int i = 0; i < width; ++i) {
    const int bi = b[static_cast<std::size_t>(i)];
    const bool faulty = i == params.fault_bit && i > 0;
    int toggle = en;
    if (i > 0) {
      std::vector<int> terms{en};
      for (int j = 0; j < i; ++j) {
        if (faulty && j == i - 1) continue;
        terms.push_back(b[static_cast<std::size_t>(j)]);
      }
      switch (params.style) {
        case CarryStyle::lookahead:
          toggle = terms.size() == 1 ? en : c.add_gate(GateKind::and_gate, terms);
          break;
        case CarryStyle::nor_tree: {
          std::vector<int> negated;
          for (const int t : terms) negated.push_back(c.add_not(t));
          toggle = negated.size() == 1 ? c.add_not(negated[0])
                                       : c.add_gate(GateKind::nor_gate, negated);
          break;
        }
        case CarryStyle::mux_chain:
          toggle = faulty ? chained
                          : c.add_and(chained, b[static_cast<std::size_t>(i - 1)]);
          break;
      }
    }
    if (params.style == CarryStyle::mux_chain) {
      chained = i == 0 ? en : toggle;
      c.set_latch_input(bi, c.add_or(c.add_and(toggle, c.add_not(bi)),
                                     c.add_and(c.add_not(toggle), bi)));
    } else {
      c.set_latch_input(bi, c.add_xor(bi, toggle));
    }
  }

  std::vector<int> differs;
  for (int i = 0; i < width; ++i) {
    differs.push_back(c.add_xor(a[static_cast<std::size_t>(i)],
                                b[static_cast<std::size_t>(i)]));
  }
  c.mark_output(c.add_gate(GateKind::or_gate, differs));
  return c;
}

std::optional<int> lockstep_bad_depth(const LockstepParams& params) {
  if (params.fault_bit == 0) return std::nullopt;
  return 1 << (params.fault_bit - 1);
}

}  // namespace perfbench
