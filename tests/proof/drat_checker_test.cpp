// DratChecker unit tests: RUP verification, deletion semantics, backward
// trimming and UNSAT-core extraction on hand-built traces.
#include <gtest/gtest.h>

#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "proof/drat_checker.h"
#include "proof/proof_writer.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

TEST(DratChecker, AcceptsUnitPropagationConsequence) {
  const Cnf cnf = make_cnf({{-1, 2}, {-2, 3}});
  proof::Proof p;
  p.add(lits({-1, 3}));
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(p);
  // Sound steps but no refutation: not a valid *proof*.
  EXPECT_FALSE(result.valid);
  EXPECT_FALSE(result.derived_empty);
  EXPECT_EQ(result.checked_adds, 1u);
}

TEST(DratChecker, RejectsNonRupAddition) {
  const Cnf cnf = make_cnf({{-1, 2}, {-2, 3}});
  proof::Proof p;
  p.add(lits({1, 2}));
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(p);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.error.find("step 0"), std::string::npos);
}

TEST(DratChecker, VerifiesFullRefutation) {
  const Cnf cnf = make_cnf({{1, 2}, {1, -2}, {-1, 3}, {-1, -3}});
  proof::Proof p;
  p.add(lits({1}));
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(p);
  // Unit 1 propagates 3 and -3: the database is refuted without an
  // explicit empty step.
  EXPECT_TRUE(result.valid);
  EXPECT_TRUE(result.derived_empty);
}

TEST(DratChecker, AcceptsExplicitEmptyStepAfterRefutation) {
  const Cnf cnf = make_cnf({{1, 2}, {1, -2}, {-1, 3}, {-1, -3}});
  proof::Proof p;
  p.add(lits({1}));
  p.add({});
  proof::DratChecker checker(cnf);
  EXPECT_TRUE(checker.check(p).valid);
}

TEST(DratChecker, RejectsUnderivableEmptyClause) {
  const Cnf cnf = make_cnf({{1, 2}});
  proof::Proof p;
  p.add({});
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(p);
  EXPECT_FALSE(result.valid);
}

TEST(DratChecker, DeletionRemovesOneCopyOnly) {
  // Two copies of (-1 2): deleting one must keep (-1 3) checkable.
  Cnf cnf = make_cnf({{-1, 2}, {-1, 2}, {-2, 3}});
  proof::Proof p;
  p.del(lits({-1, 2}));
  p.add(lits({-1, 3}));
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(p);
  // The addition verifying proves the second copy survived the deletion.
  EXPECT_EQ(result.checked_adds, 1u);
  EXPECT_EQ(result.deletions, 1u);
  EXPECT_EQ(result.skipped_deletions, 0u);
}

TEST(DratChecker, DeletionAfterBothCopiesGoneIsSkipped) {
  Cnf cnf = make_cnf({{-1, 2}, {-2, 3}});
  proof::Proof p;
  p.del(lits({-1, 2}));
  p.del(lits({-1, 2}));
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(p);
  EXPECT_EQ(result.deletions, 2u);
  EXPECT_EQ(result.skipped_deletions, 1u);
}

TEST(DratChecker, DeletionOfRootForcingClauseIsSkipped) {
  // Unit (1) forces the root literals 1 and (through -1 2) 2. Deleting
  // the unit must be skipped: the addition that follows is RUP only
  // while 2 stays derivable.
  const Cnf cnf = make_cnf({{1}, {-1, 2}, {-2, 4, 5}});
  proof::Proof p;
  p.del(lits({1}));
  p.add(lits({4, 5}));
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(p);
  EXPECT_EQ(result.checked_adds, 1u) << result.error;
  EXPECT_EQ(result.skipped_deletions, 1u);
}

TEST(DratChecker, DeletionMatchesClauseWhoseWatchesMoved) {
  // Root unit -1 moves the watches of (1 2 3), so the stored literal
  // order no longer matches the deletion's. The deletion must still
  // remove the clause, after which (2 3) is no longer RUP.
  const Cnf cnf = make_cnf({{-1}, {1, 2, 3}});
  proof::Proof p;
  p.del(lits({1, 2, 3}));
  p.add(lits({2, 3}));
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(p);
  EXPECT_EQ(result.deletions, 1u);
  EXPECT_EQ(result.skipped_deletions, 0u);
  EXPECT_EQ(result.checked_adds, 0u);
  EXPECT_EQ(result.error, "step 1: clause is not RUP");
}

TEST(DratChecker, DeletionOfBinaryRemovesItsImplications) {
  const Cnf cnf = make_cnf({{-1, 2}, {-2, 3}});
  proof::Proof p;
  p.del(lits({2, -1}));
  p.add(lits({-1, 3}));
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(p);
  EXPECT_EQ(result.skipped_deletions, 0u);
  EXPECT_EQ(result.error, "step 1: clause is not RUP");
}

TEST(DratChecker, PropagationCountIsDeterministic) {
  const Cnf cnf = gen::pigeonhole(5);
  proof::MemoryProofWriter writer;
  SolverOptions options;
  options.restart_interval = 20;  // reductions put deletions in the trace
  Solver solver(options);
  solver.set_proof(&writer);
  solver.load(cnf);
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);

  proof::DratChecker first(cnf);
  proof::DratChecker second(cnf);
  const proof::CheckResult a = first.check(writer.proof());
  const proof::CheckResult b = second.check(writer.proof());
  ASSERT_TRUE(a.valid) << a.error;
  EXPECT_GT(a.propagations, 0u);
  EXPECT_EQ(a.propagations, b.propagations);
}

TEST(DratChecker, ContradictoryOriginalsNeedNoProof) {
  const Cnf cnf = make_cnf({{1}, {-1}});
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(proof::Proof{});
  EXPECT_TRUE(result.valid);
  EXPECT_EQ(checker.core().size(), 2u);
}

TEST(DratChecker, EmptyOriginalClauseIsTheWholeCore) {
  Cnf cnf = make_cnf({{1, 2}});
  cnf.add_clause(std::vector<Lit>{});
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(proof::Proof{});
  EXPECT_TRUE(result.valid);
  ASSERT_EQ(checker.core().size(), 1u);
  EXPECT_EQ(checker.core()[0], 1u);
}

TEST(DratChecker, TautologyAdditionIsVacuous) {
  const Cnf cnf = make_cnf({{1}, {-1}});
  proof::Proof p;
  p.add(lits({2, -2}));
  proof::DratChecker checker(cnf);
  EXPECT_TRUE(checker.check(p).valid);
}

TEST(DratChecker, CoreExcludesIrrelevantClauses) {
  // Clauses 0-3 refute variable 1; clauses 4-5 touch variables 10/11 and
  // can never participate.
  const Cnf cnf = make_cnf(
      {{1, 2}, {1, -2}, {-1, 3}, {-1, -3}, {10, 11}, {-10, 11}});
  proof::Proof p;
  p.add(lits({1}));
  p.add(lits({3}));
  proof::DratChecker checker(cnf);
  ASSERT_TRUE(checker.check(p).valid);
  for (const std::size_t index : checker.core()) {
    EXPECT_LT(index, 4u) << "irrelevant clause in core";
  }
  EXPECT_GE(checker.core().size(), 3u);
}

TEST(DratChecker, TrimDropsUnusedAdditions) {
  const Cnf cnf = make_cnf({{1, 2}, {1, -2}, {-1, 3}, {-1, -3}, {10, 11}});
  proof::Proof trace;
  trace.add(lits({1, 3}));  // RUP filler, but the refutation never uses it
  trace.add(lits({1}));
  trace.add({});
  proof::DratChecker checker(cnf);
  ASSERT_TRUE(checker.check(trace).valid);
  const proof::Proof& trimmed = checker.trimmed();
  EXPECT_TRUE(trimmed.ends_with_empty());
  EXPECT_LT(trimmed.num_adds(), trace.num_adds());

  // A trimmed proof must itself verify.
  proof::DratChecker recheck(cnf);
  EXPECT_TRUE(recheck.check(trimmed).valid);
}

TEST(DratChecker, CoreFormulaIsUnsatAndSubsetSized) {
  const Cnf cnf = make_cnf(
      {{1, 2}, {1, -2}, {-1, 3}, {-1, -3}, {10, 11}, {-10, -11}});
  proof::Proof p;
  p.add(lits({1}));
  p.add(lits({-1}));
  proof::DratChecker checker(cnf);
  ASSERT_TRUE(checker.check(p).valid);
  const Cnf core = proof::DratChecker::core_formula(cnf, checker.core());
  EXPECT_LE(core.num_clauses(), cnf.num_clauses());
  EXPECT_EQ(core.num_vars(), cnf.num_vars());
}

TEST(DratChecker, InstancesAreSingleUse) {
  const Cnf cnf = make_cnf({{1}, {-1}});
  proof::DratChecker checker(cnf);
  EXPECT_TRUE(checker.check(proof::Proof{}).valid);
  const proof::CheckResult again = checker.check(proof::Proof{});
  EXPECT_FALSE(again.valid);
  EXPECT_NE(again.error.find("single-use"), std::string::npos);
}

TEST(DratChecker, ProducerTagsSurviveTrimming) {
  const Cnf cnf = make_cnf({{1, 2}, {1, -2}, {-1, 3}, {-1, -3}});
  proof::Proof p;
  p.add(lits({1}), /*producer=*/3);
  proof::DratChecker checker(cnf);
  ASSERT_TRUE(checker.check(p).valid);
  ASSERT_GE(checker.trimmed().size(), 1u);
  EXPECT_EQ(checker.trimmed().steps[0].producer, 3);
}

}  // namespace
}  // namespace berkmin
