#include "util/cdf.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/assert.hpp"

namespace tmprof::util {
namespace {

TEST(Cdf, AtFractions) {
  EmpiricalCdf cdf({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(cdf.at(0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(100), 1.0);
}

TEST(Cdf, Quantiles) {
  EmpiricalCdf cdf({10, 20, 30, 40, 50});
  EXPECT_EQ(cdf.quantile(0.0), 10U);
  EXPECT_EQ(cdf.quantile(0.2), 10U);
  EXPECT_EQ(cdf.quantile(0.5), 30U);
  EXPECT_EQ(cdf.quantile(1.0), 50U);
}

TEST(Cdf, MinMax) {
  EmpiricalCdf cdf({7, 3, 9});
  EXPECT_EQ(cdf.min(), 3U);
  EXPECT_EQ(cdf.max(), 9U);
}

TEST(Cdf, EmptyBehaves) {
  EmpiricalCdf cdf({});
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.at(5), 0.0);
  EXPECT_THROW((void)cdf.quantile(0.5), AssertionError);
}

TEST(Cdf, CurveIsMonotone) {
  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 0; i < 1000; ++i) samples.push_back(i * i % 977);
  EmpiricalCdf cdf(std::move(samples));
  const auto rows = cdf.curve(20);
  ASSERT_GE(rows.size(), 2U);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].first, rows[i - 1].first);
    EXPECT_GE(rows[i].second, rows[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(rows.back().second, 1.0);
}

TEST(Cdf, CsvHasHeaderAndRows) {
  EmpiricalCdf cdf({1, 2, 3});
  std::ostringstream os;
  cdf.write_csv(os, 3);
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("value,cum_fraction\n", 0), 0U);
  EXPECT_NE(text.find("3,1"), std::string::npos);
}

}  // namespace
}  // namespace tmprof::util
