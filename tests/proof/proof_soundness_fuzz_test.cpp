// Seeded soundness fuzz for the DRAT checker: the acceptance fuzzers show
// that honest traces verify; this one shows that a trace stops verifying
// once the formula no longer implies it. A real solver trace (inprocessing
// on, so strengthening, vivification and elimination rewrites appear) is
// checked against a weakened formula — the original minus one clause of
// its UNSAT core — that the reference DPLL confirms satisfiable. No
// refutation of a satisfiable formula exists, so the checker must reject.
// Pigeonhole traces exercise the binary implication lists; random 3-SAT
// and miters exercise long clauses.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/solver.h"
#include "gen/miters.h"
#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "proof/drat_checker.h"
#include "proof/proof_writer.h"
#include "reference/dpll.h"
#include "test_util.h"
#include "util/rng.h"

namespace berkmin {
namespace {

struct UnsatRun {
  Cnf cnf;
  proof::Proof trace;
};

UnsatRun solve_unsat(int seed) {
  SolverOptions options;
  options.seed = static_cast<std::uint64_t>(seed);
  options.restart_interval = 20;  // restart (and inprocess) often
  options.inprocess.enabled = true;
  options.inprocess.interval_restarts = 1;
  options.inprocess.var_elim = true;

  // Random 3-SAT sits at the threshold ratio (~4.27), where a refutation
  // rarely survives losing any one core clause; fresh formulas are drawn
  // until one is UNSAT.
  for (std::uint64_t attempt = 0;; ++attempt) {
    UnsatRun run;
    switch (seed % 3) {
      case 0:
        run.cnf = gen::pigeonhole(4 + (seed / 3) % 3);
        break;
      case 1:
        run.cnf = gen::random_ksat(
            /*num_vars=*/45, /*num_clauses=*/192, /*k=*/3,
            5000 + 64 * static_cast<std::uint64_t>(seed) + attempt);
        break;
      default: {
        gen::MiterParams params;
        params.num_inputs = 8;
        params.num_gates = 60;
        params.num_outputs = 2;
        params.seed = static_cast<std::uint64_t>(seed);
        run.cnf = gen::miter_instance(params);
        break;
      }
    }
    proof::MemoryProofWriter writer;
    Solver solver(options);
    solver.set_proof(&writer);
    solver.load(run.cnf);
    if (solver.solve() == SolveStatus::unsatisfiable || attempt == 16) {
      run.trace = writer.proof();
      return run;
    }
  }
}

Cnf without_clause(const Cnf& cnf, std::size_t dropped) {
  Cnf out(cnf.num_vars());
  for (std::size_t i = 0; i < cnf.num_clauses(); ++i) {
    if (i != dropped) out.add_clause(cnf.clause(i));
  }
  return out;
}

class ProofSoundnessFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ProofSoundnessFuzz, WeakenedFormulaRejectsTrace) {
  const int seed = GetParam();
  const UnsatRun run = solve_unsat(seed);
  ASSERT_TRUE(run.trace.ends_with_empty()) << "seed " << seed;

  proof::DratChecker checker(run.cnf);
  const proof::CheckResult honest = checker.check(run.trace);
  ASSERT_TRUE(honest.valid) << "seed " << seed << ": " << honest.error;
  std::vector<std::size_t> core = checker.core();
  ASSERT_FALSE(core.empty());

  // Try core clauses in a seeded order until removing one leaves a
  // formula the reference DPLL proves satisfiable (a core need not be
  // minimal, so some removals keep it UNSAT).
  Rng rng(static_cast<std::uint64_t>(seed));
  for (std::size_t i = core.size(); i > 1; --i) {
    std::swap(core[i - 1], core[rng.below(i)]);
  }
  int rejected = 0;
  for (std::size_t k = 0; k < core.size() && rejected == 0; ++k) {
    const Cnf weakened = without_clause(run.cnf, core[k]);
    const reference::DpllResult oracle =
        reference::dpll_solve(weakened, /*max_nodes=*/200000);
    if (!oracle.completed || !oracle.satisfiable) continue;

    proof::DratChecker weak_checker(weakened);
    const proof::CheckResult result = weak_checker.check(run.trace);
    EXPECT_FALSE(result.valid)
        << "seed " << seed << ": trace accepted without clause " << core[k];
    EXPECT_FALSE(result.error.empty());
    ++rejected;
  }
  EXPECT_EQ(rejected, 1) << "seed " << seed
                         << ": no satisfiable weakening found";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProofSoundnessFuzz, ::testing::Range(0, 30));

}  // namespace
}  // namespace berkmin
