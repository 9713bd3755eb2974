#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/assert.hpp"

namespace tmprof::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1U);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats whole, left, right;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37 - 5.0;
    whole.add(x);
    (i < 40 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2U);
  b.merge(a);
  EXPECT_EQ(b.count(), 2U);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Percentile, MedianAndExtremes) {
  const std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.5);
}

TEST(Percentile, U64Overload) {
  const std::vector<std::uint64_t> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
}

TEST(Percentile, RejectsEmptyAndBadQ) {
  const std::vector<double> empty;
  EXPECT_THROW((void)percentile(empty, 0.5), AssertionError);
  const std::vector<double> xs{1.0};
  EXPECT_THROW((void)percentile(xs, 1.5), AssertionError);
}

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

}  // namespace
}  // namespace tmprof::util

#include "util/assert.hpp"
#include "util/time.hpp"

namespace tmprof::util {
namespace {

TEST(SimTime, CycleConversionsRoundTrip) {
  EXPECT_EQ(cycles_to_ns(0), 0U);
  // 3.8 GHz: 3800 cycles ≈ 1000 ns.
  EXPECT_EQ(cycles_to_ns(3800), 1000U);
  EXPECT_EQ(ns_to_cycles(1000), 3800U);
  EXPECT_EQ(kSecond, 1'000'000'000U);
  EXPECT_EQ(kMillisecond, 1'000'000U);
  EXPECT_EQ(kMicrosecond, 1'000U);
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
