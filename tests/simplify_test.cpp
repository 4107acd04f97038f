#include <gtest/gtest.h>

#include "cnf/simplify.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;

TEST(NormalizeClause, SortsAndDeduplicates) {
  const auto result = normalize_clause(lits({3, 1, 3, -2}));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, lits({1, -2, 3}));
}

TEST(NormalizeClause, DetectsTautology) {
  EXPECT_FALSE(normalize_clause(lits({1, -1})).has_value());
  EXPECT_FALSE(normalize_clause(lits({2, 1, -2})).has_value());
}

TEST(NormalizeClause, EmptyStaysEmpty) {
  const auto result = normalize_clause({});
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
}

}  // namespace
}  // namespace berkmin
