// Proof logging and checking: every clause the solver learns must be a
// RUP consequence of the evolving database, and the full DRAT stream of
// an UNSAT run must check out, deletions included. Traces are captured
// through Solver::set_proof and verified by proof::DratChecker.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "core/solver.h"
#include "gen/parity.h"
#include "gen/pigeonhole.h"
#include "proof/drat_checker.h"
#include "proof/drat_file.h"
#include "proof/proof_writer.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

proof::CheckResult check(const Cnf& cnf, const proof::Proof& trace) {
  proof::DratChecker checker(cnf);
  return checker.check(trace);
}

// Sorts and deduplicates `clause` into `out`; false for a tautology.
bool normalize(std::span<const Lit> clause, std::vector<Lit>* out) {
  out->assign(clause.begin(), clause.end());
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  for (std::size_t i = 1; i < out->size(); ++i) {
    if ((*out)[i].var() == (*out)[i - 1].var()) return false;
  }
  return true;
}

// Replays `trace` over a multiset of normalized clauses (the formula plus
// every addition) and counts the deletions that find no copy to remove.
// Tautologies are never stored and their deletions always match. The
// replay is independent of the checker, so it pins what the solver logs.
std::size_t unmatched_deletions(const Cnf& cnf, const proof::Proof& trace) {
  std::multiset<std::vector<Lit>> live;
  std::vector<Lit> clause;
  for (std::size_t i = 0; i < cnf.num_clauses(); ++i) {
    if (normalize(cnf.clause(i), &clause)) live.insert(clause);
  }
  std::size_t missing = 0;
  for (const proof::ProofStep& step : trace.steps) {
    if (!normalize(step.lits, &clause)) continue;
    if (step.is_add()) {
      live.insert(clause);
    } else if (const auto it = live.find(clause); it != live.end()) {
      live.erase(it);
    } else {
      ++missing;
    }
  }
  return missing;
}

// Every deletion the solver logged must find a live copy in the replay.
// The checker skips a deletion only when no live copy matches or when the
// clause is the reason of a root literal; with every copy present only the
// second kind remains, and each root variable has one reason that stays
// live, so the checker's skips are bounded by the variable count.
void expect_deletions_matched(const Cnf& cnf, const proof::Proof& trace,
                              const proof::CheckResult& result) {
  EXPECT_EQ(unmatched_deletions(cnf, trace), 0u);
  EXPECT_EQ(result.deletions, trace.num_deletes());
  EXPECT_LE(result.skipped_deletions,
            static_cast<std::size_t>(cnf.num_vars()));
}

TEST(RupChecker, AcceptsUnitPropagationConsequence) {
  // (~1 2)(~2 3): clause (~1 3) is RUP.
  proof::Proof trace;
  trace.add(lits({-1, 3}));
  const proof::CheckResult result = check(make_cnf({{-1, 2}, {-2, 3}}), trace);
  EXPECT_EQ(result.checked_adds, 1u) << result.error;
}

TEST(RupChecker, RejectsNonConsequence) {
  proof::Proof trace;
  trace.add(lits({1, 2}));
  const proof::CheckResult result = check(make_cnf({{-1, 2}, {-2, 3}}), trace);
  EXPECT_EQ(result.checked_adds, 0u);
  EXPECT_NE(result.error.find("not RUP"), std::string::npos);
}

TEST(RupChecker, ChainsThroughAddedClauses) {
  proof::Proof trace;
  trace.add(lits({1}));
  // With unit 1 stored, the empty clause is now derivable.
  trace.add({});
  const proof::CheckResult result =
      check(make_cnf({{1, 2}, {1, -2}, {-1, 3}, {-1, -3}}), trace);
  EXPECT_TRUE(result.valid) << result.error;
  EXPECT_TRUE(result.derived_empty);
}

TEST(RupChecker, RemoveDeletesOneCopy) {
  // The deletion lists the literals in another order than the formula;
  // the second deletion finds no live copy, and (~1 3) is no longer RUP.
  proof::Proof trace;
  trace.del(lits({2, -1}));
  trace.del(lits({-1, 2}));
  trace.add(lits({-1, 3}));
  const proof::CheckResult result = check(make_cnf({{-1, 2}, {-2, 3}}), trace);
  EXPECT_EQ(result.deletions, 2u);
  EXPECT_EQ(result.skipped_deletions, 1u);
  EXPECT_EQ(result.checked_adds, 0u);
  EXPECT_NE(result.error.find("step 2"), std::string::npos);
}

TEST(RupChecker, TautologyIsVacuouslyAccepted) {
  // The tautology neither fails nor counts; the check goes on past it.
  proof::Proof trace;
  trace.add(lits({3, -3}));
  trace.add(lits({2, 1}));
  const proof::CheckResult result = check(make_cnf({{1, 2}}), trace);
  EXPECT_EQ(result.checked_adds, 1u) << result.error;
}

// Solves `cnf` with a proof writer attached and checks the whole trace:
// every learned clause must verify as RUP against the database as the
// trace evolves it, and every logged deletion must find a live copy.
struct TracedSolve {
  SolveStatus status = SolveStatus::unknown;
  proof::Proof trace;
  proof::CheckResult result;
};

TracedSolve solve_and_check(const Cnf& cnf, const SolverOptions& options) {
  TracedSolve out;
  proof::MemoryProofWriter writer;
  Solver solver(options);
  solver.set_proof(&writer);
  solver.load(cnf);
  out.status = solver.solve();
  out.trace = writer.proof();
  out.result = check(cnf, out.trace);
  return out;
}

TEST(OnlineRup, PigeonholeAllLearnedClausesAreRup) {
  const Cnf cnf = gen::pigeonhole(4);
  const TracedSolve run = solve_and_check(cnf, SolverOptions{});
  EXPECT_EQ(run.status, SolveStatus::unsatisfiable);
  EXPECT_TRUE(run.result.valid) << run.result.error;
  EXPECT_GT(run.result.checked_adds, 0u);
  expect_deletions_matched(cnf, run.trace, run.result);
}

TEST(OnlineRup, WithAggressiveReductions) {
  const Cnf cnf = gen::pigeonhole(5);
  SolverOptions options;
  options.restart_interval = 15;  // many reductions: deletions must match
  const TracedSolve run = solve_and_check(cnf, options);
  EXPECT_EQ(run.status, SolveStatus::unsatisfiable);
  EXPECT_TRUE(run.result.valid) << run.result.error;
  // More deletions than the skip bound allows, so a checker that matched
  // none of them would fail.
  EXPECT_GT(run.result.deletions, static_cast<std::size_t>(cnf.num_vars()));
  expect_deletions_matched(cnf, run.trace, run.result);
}

class OnlineRupConfigs : public ::testing::TestWithParam<int> {};

TEST_P(OnlineRupConfigs, UnsatParityProofChecks) {
  gen::ParityParams params;
  params.num_vars = 10;
  params.num_equations = 14;
  params.equation_size = 3;
  params.satisfiable = false;
  params.seed = static_cast<std::uint64_t>(GetParam());
  const Cnf cnf = gen::parity_instance(params);

  const auto configs = testing::all_paper_configs();
  const SolverOptions& options = configs[GetParam() % configs.size()];
  const TracedSolve run = solve_and_check(cnf, options);
  EXPECT_EQ(run.status, SolveStatus::unsatisfiable) << options.describe();
  EXPECT_TRUE(run.result.valid) << options.describe() << ": "
                                << run.result.error;
  expect_deletions_matched(cnf, run.trace, run.result);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineRupConfigs, ::testing::Range(0, 12));

TEST(DratWriter, EmitsTextualProof) {
  std::ostringstream text;
  proof::TextDratWriter writer(text);
  Solver solver;
  solver.set_proof(&writer);
  solver.load(make_cnf({{1, 2}, {1, -2}, {-1, 3}, {-1, -3}}));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_GT(writer.num_added(), 0u);
  EXPECT_NE(text.str().find(" 0\n"), std::string::npos);
}

TEST(DratWriter, DeletionLinesPrefixed) {
  std::ostringstream text;
  proof::TextDratWriter writer(text);
  SolverOptions options;
  options.restart_interval = 15;
  Solver solver(options);
  solver.set_proof(&writer);
  solver.load(gen::pigeonhole(5));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_GT(solver.stats().deleted_clauses, 0u);
  EXPECT_NE(text.str().find("d "), std::string::npos);
}

TEST(DratReplay, FullProofVerifiesOffline) {
  // Emit a DRAT proof to text, then parse it back and check it with a
  // fresh checker, exactly as an external checker would.
  const Cnf cnf = gen::pigeonhole(4);
  std::ostringstream text;
  proof::TextDratWriter writer(text);
  SolverOptions options;
  options.restart_interval = 25;
  Solver solver(options);
  solver.set_proof(&writer);
  solver.load(cnf);
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);

  std::istringstream in(text.str());
  proof::Proof trace;
  std::string error;
  ASSERT_TRUE(proof::read_drat(in, proof::DratFormat::text, &trace, &error))
      << error;
  ASSERT_TRUE(trace.ends_with_empty());
  const proof::CheckResult result = check(cnf, trace);
  EXPECT_TRUE(result.valid) << result.error;
  EXPECT_GT(result.checked_adds, 0u);
  EXPECT_GT(trace.num_deletes(), 0u);
  expect_deletions_matched(cnf, trace, result);
}

}  // namespace
}  // namespace berkmin
