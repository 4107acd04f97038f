// Model-checking inputs built by the benchmark from the public Circuit
// API: two `width`-bit counters stepped in lockstep by one shared enable
// input, with different carry logic. The bad output fires when their
// states differ.
//
// The correct pair is safe (IC3 proves it with the invariant "bit i of
// one counter equals bit i of the other"). A fault in the second
// counter's carry into bit `fault_bit` (it ignores bit fault_bit - 1)
// first shows when the counters pass 2^(fault_bit-1) - 1, so the
// shortest counterexample has depth 2^(fault_bit-1): the broken bit sets
// how deep the bug is.
#pragma once

#include <optional>

#include "circuit/circuit.h"

namespace perfbench {

enum class CarryStyle : int {
  lookahead = 0,  // bit i toggles on AND(en, b_0..b_{i-1})
  nor_tree = 1,   // the same carry as a NOR of the complements
  mux_chain = 2,  // rippled carry, bit update written as a 2:1 mux
};
inline constexpr int kNumCarryStyles = 3;

struct LockstepParams {
  int width = 16;
  CarryStyle style = CarryStyle::lookahead;
  int fault_bit = 0;  // 0 = no fault; else 1..width-1
  // Nonzero: allocate the latches in an order shuffled by this seed, which
  // renumbers the CNF variables without changing the behaviour.
  std::uint64_t shuffle_seed = 0;
};

berkmin::Circuit lockstep_counters(const LockstepParams& params);

// Depth of the shortest counterexample by construction (nullopt = safe).
std::optional<int> lockstep_bad_depth(const LockstepParams& params);

}  // namespace perfbench
