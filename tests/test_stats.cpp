#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/assert.hpp"

namespace tmprof::util {
namespace {

TEST(Geomean, KnownValues) {
  const std::vector<double> xs{1.0, 4.0};
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
  const std::vector<double> ones{1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(geomean(ones), 1.0);
}

TEST(Geomean, RejectsNonPositive) {
  const std::vector<double> xs{1.0, 0.0};
  EXPECT_THROW((void)geomean(xs), AssertionError);
}

TEST(Assertions, MacrosThrowWithContext) {
  try {
    TMPROF_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const AssertionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_stats.cpp"), std::string::npos);
  }
  EXPECT_THROW(TMPROF_ASSERT(false), AssertionError);
  EXPECT_THROW(TMPROF_ENSURES(false), AssertionError);
  EXPECT_NO_THROW(TMPROF_ASSERT(true));
}

}  // namespace
}  // namespace tmprof::util
