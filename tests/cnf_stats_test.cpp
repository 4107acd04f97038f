// CNF shape statistics (cnf/cnf_stats.h).
#include <gtest/gtest.h>

#include "cnf/cnf_stats.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::make_cnf;

TEST(CnfStatsTest, CountsShapes) {
  const Cnf cnf = make_cnf({{1}, {1, 2}, {-1, 2, 3}, {1, 2, 3, 4}});
  const CnfStats stats = compute_stats(cnf);
  EXPECT_EQ(stats.num_vars, 4);
  EXPECT_EQ(stats.num_clauses, 4u);
  EXPECT_EQ(stats.num_units, 1u);
  EXPECT_EQ(stats.num_binary, 1u);
  EXPECT_EQ(stats.num_ternary, 1u);
  EXPECT_EQ(stats.max_clause_length, 4u);
  EXPECT_EQ(stats.num_literals, 10u);
  EXPECT_DOUBLE_EQ(stats.mean_clause_length, 2.5);
  EXPECT_EQ(stats.length_histogram[3], 1u);
}

TEST(CnfStatsTest, HornDetection) {
  // (-1 -2 3) is horn (1 positive); (1 2) is not (2 positives).
  const Cnf cnf = make_cnf({{-1, -2, 3}, {1, 2}});
  const CnfStats stats = compute_stats(cnf);
  EXPECT_EQ(stats.num_horn, 1u);
}

TEST(CnfStatsTest, PositiveFraction) {
  const Cnf cnf = make_cnf({{1, -2}});
  EXPECT_DOUBLE_EQ(compute_stats(cnf).positive_literal_fraction, 0.5);
}

TEST(CnfStatsTest, SummaryMentionsCounts) {
  const Cnf cnf = make_cnf({{1, 2}});
  const std::string text = compute_stats(cnf).summary();
  EXPECT_NE(text.find("2 vars"), std::string::npos);
  EXPECT_NE(text.find("1 clauses"), std::string::npos);
}

TEST(CnfStatsTest, EmptyFormula) {
  const CnfStats stats = compute_stats(Cnf(3));
  EXPECT_EQ(stats.num_clauses, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_clause_length, 0.0);
}

}  // namespace
}  // namespace berkmin
