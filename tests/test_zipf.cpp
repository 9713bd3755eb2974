#include "util/zipf.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "util/assert.hpp"

namespace tmprof::util {
namespace {

TEST(Zipf, SamplesStayInRange) {
  ZipfDistribution zipf(1000, 0.99);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf(rng), 1000U);
  }
}

TEST(Zipf, SingleItemAlwaysZero) {
  ZipfDistribution zipf(1, 0.99);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf(rng), 0U);
}

TEST(Zipf, RejectsThetaOne) {
  EXPECT_THROW(ZipfDistribution(10, 1.0), AssertionError);
}

/// Property sweep: empirical frequency of the head rank matches its
/// probability 1/H(n,theta) across sizes and skews, where H(n,theta) is the
/// generalized harmonic number sum_{k=1..n} k^-theta.
class ZipfFrequency
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(ZipfFrequency, HeadFrequencyMatchesPmf) {
  const auto [n, theta] = GetParam();
  ZipfDistribution zipf(n, theta);
  Rng rng(42);
  const int draws = 200000;
  int head = 0;
  for (int i = 0; i < draws; ++i) {
    if (zipf(rng) == 0) ++head;
  }
  double harmonic = 0.0;
  for (std::uint64_t k = 1; k <= n; ++k) {
    harmonic += std::pow(static_cast<double>(k), -theta);
  }
  const double expected = 1.0 / harmonic;
  EXPECT_NEAR(static_cast<double>(head) / draws, expected,
              0.1 * expected + 0.002);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSkews, ZipfFrequency,
    ::testing::Combine(::testing::Values<std::uint64_t>(10, 1000, 100000),
                       ::testing::Values(0.5, 0.9, 0.99, 1.2)));

TEST(HotCold, HotWeightRespected) {
  HotColdDistribution dist(1000, 100, 0.9);
  Rng rng(3);
  const int draws = 100000;
  int hot = 0;
  for (int i = 0; i < draws; ++i) {
    if (dist(rng) < 100) ++hot;
  }
  EXPECT_NEAR(static_cast<double>(hot) / draws, 0.9, 0.01);
}

TEST(HotCold, ColdDrawsLandInTail) {
  HotColdDistribution dist(1000, 10, 0.0);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const auto v = dist(rng);
    EXPECT_GE(v, 10U);
    EXPECT_LT(v, 1000U);
  }
}

TEST(HotCold, AllHotDegeneratesToUniform) {
  HotColdDistribution dist(100, 100, 0.5);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(dist(rng), 100U);
}

TEST(HotCold, RejectsBadArguments) {
  EXPECT_THROW(HotColdDistribution(10, 11, 0.5), AssertionError);
  EXPECT_THROW(HotColdDistribution(10, 0, 0.5), AssertionError);
  EXPECT_THROW(HotColdDistribution(10, 5, 1.5), AssertionError);
}

}  // namespace
}  // namespace tmprof::util
