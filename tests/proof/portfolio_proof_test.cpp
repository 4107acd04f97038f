// Spliced portfolio proofs: racing diversified workers with clause
// sharing must still produce one DRAT trace the in-tree checker verifies,
// with every step attributed to its producing worker.
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/parity.h"
#include "gen/pigeonhole.h"
#include "portfolio/portfolio.h"
#include "proof/drat_checker.h"
#include "test_util.h"

namespace berkmin {
namespace {

TEST(PortfolioProof, SplicedUnsatTraceVerifies) {
  const Cnf cnf = gen::pigeonhole(6);
  portfolio::PortfolioOptions options;
  options.num_threads = 4;
  options.share_clauses = true;
  options.log_proof = true;
  // Every worker reduces from its 20th conflict on, so no race ends before
  // the first deletion (with the default schedule a worker occasionally
  // refuted the formula first and the trace had no deletions at all).
  options.configs =
      portfolio::diversified_configs(options.num_threads, options.base_seed);
  for (portfolio::WorkerConfig& config : options.configs) {
    config.options.restart_interval = 20;
  }
  portfolio::PortfolioSolver portfolio(options);
  portfolio.load(cnf);
  ASSERT_EQ(portfolio.solve(), SolveStatus::unsatisfiable);

  const proof::Proof trace = portfolio.spliced_proof();
  ASSERT_TRUE(trace.ends_with_empty());
  // Per-worker deletions survive splicing (deferred, not dropped), so the
  // checker's live database stays bounded below the trace's total adds.
  EXPECT_GT(trace.num_deletes(), 0u);

  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(trace);
  EXPECT_TRUE(result.valid) << result.error;
  EXPECT_LT(result.peak_live_clauses,
            cnf.num_clauses() + result.checked_adds);
}

TEST(PortfolioProof, StepsCarryProducerIds) {
  const Cnf cnf = gen::pigeonhole(5);
  portfolio::PortfolioOptions options;
  options.num_threads = 3;
  options.log_proof = true;
  portfolio::PortfolioSolver portfolio(options);
  portfolio.load(cnf);
  ASSERT_EQ(portfolio.solve(), SolveStatus::unsatisfiable);

  const proof::Proof trace = portfolio.spliced_proof();
  ASSERT_FALSE(trace.empty());
  for (const proof::ProofStep& step : trace.steps) {
    EXPECT_GE(step.producer, 0);
    EXPECT_LT(step.producer, 3);
  }
  // The race ran in parallel: at least the winner contributed.
  EXPECT_TRUE(std::any_of(
      trace.steps.begin(), trace.steps.end(),
      [&](const proof::ProofStep& s) { return s.is_add() && s.lits.empty(); }));
}

TEST(PortfolioProof, CoreFromSplicedProofResolvesUnsat) {
  const Cnf cnf = gen::pigeonhole(5);
  portfolio::PortfolioOptions options;
  options.num_threads = 4;
  options.log_proof = true;
  portfolio::PortfolioSolver portfolio(options);
  portfolio.load(cnf);
  ASSERT_EQ(portfolio.solve(), SolveStatus::unsatisfiable);

  proof::DratChecker checker(cnf);
  ASSERT_TRUE(checker.check(portfolio.spliced_proof()).valid);
  Solver resolver;
  resolver.load(proof::DratChecker::core_formula(cnf, checker.core()));
  EXPECT_EQ(resolver.solve(), SolveStatus::unsatisfiable);
}

TEST(PortfolioProof, SatisfiableRaceLeavesTraceOpen) {
  gen::ParityParams params;
  params.num_vars = 12;
  params.num_equations = 10;
  params.equation_size = 3;
  params.satisfiable = true;
  params.seed = 5;
  const Cnf cnf = gen::parity_instance(params);

  portfolio::PortfolioOptions options;
  options.num_threads = 3;
  options.log_proof = true;
  portfolio::PortfolioSolver portfolio(options);
  portfolio.load(cnf);
  ASSERT_EQ(portfolio.solve(), SolveStatus::satisfiable);
  EXPECT_FALSE(portfolio.spliced_proof().ends_with_empty());
  EXPECT_TRUE(cnf.is_satisfied_by(portfolio.model()));
}

TEST(PortfolioProof, LoggingOffYieldsEmptyTrace) {
  portfolio::PortfolioSolver portfolio(
      portfolio::PortfolioOptions{.num_threads = 2});
  portfolio.load(gen::pigeonhole(4));
  ASSERT_EQ(portfolio.solve(), SolveStatus::unsatisfiable);
  EXPECT_FALSE(portfolio.proof_logging());
  EXPECT_TRUE(portfolio.spliced_proof().empty());
}

TEST(PortfolioProof, WarmReuseKeepsAccumulatingOneProof) {
  // Workers stay warm across solves; the second (still UNSAT) answer must
  // still hand back a complete checkable trace.
  const Cnf cnf = gen::pigeonhole(5);
  portfolio::PortfolioOptions options;
  options.num_threads = 2;
  options.log_proof = true;
  portfolio::PortfolioSolver portfolio(options);
  portfolio.load(cnf);
  ASSERT_EQ(portfolio.solve(), SolveStatus::unsatisfiable);
  ASSERT_EQ(portfolio.solve(), SolveStatus::unsatisfiable);

  proof::DratChecker checker(cnf);
  EXPECT_TRUE(checker.check(portfolio.spliced_proof()).valid);
}

}  // namespace
}  // namespace berkmin
