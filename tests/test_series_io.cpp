#include "tiering/series_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "tiering/hitrate.hpp"
#include "tiering/policies.hpp"

namespace tmprof::tiering {
namespace {

PageKey key(std::uint64_t n) { return PageKey{1000, n * mem::kPageSize}; }

EpochSeries sample_series() {
  EpochSeries series;
  for (std::uint32_t e = 0; e < 3; ++e) {
    EpochData data;
    data.epoch = e;
    for (std::uint64_t p = 0; p < 6; ++p) {
      data.truth[key(p)] = (p + 1) * (e + 1);
      data.truth_total += (p + 1) * (e + 1);
      data.observed.abit[key(p)] = 1;
      if (p % 2 == 0) {
        data.observed.trace[key(p)] = static_cast<std::uint32_t>(p * 3 + 1);
      }
      if (p == 5) data.observed.writes[key(p)] = 7;
      if (e == 0) data.new_pages.push_back(key(p));
    }
    series.epochs.push_back(std::move(data));
  }
  for (std::uint64_t p = 0; p < 6; ++p) {
    series.page_sizes[key(p)] =
        p == 5 ? mem::PageSize::k2M : mem::PageSize::k4K;
  }
  series.footprint_frames = 5 + mem::kPagesPerHuge;
  return series;
}

TEST(SeriesIo, RoundTripPreservesEverything) {
  const EpochSeries original = sample_series();
  std::stringstream buffer;
  save_series(original, buffer);
  const EpochSeries loaded = load_series(buffer);

  ASSERT_EQ(loaded.epochs.size(), original.epochs.size());
  EXPECT_EQ(loaded.footprint_frames, original.footprint_frames);
  EXPECT_EQ(loaded.page_sizes, original.page_sizes);
  for (std::size_t e = 0; e < original.epochs.size(); ++e) {
    const EpochData& a = original.epochs[e];
    const EpochData& b = loaded.epochs[e];
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.truth, b.truth);
    EXPECT_EQ(a.truth_total, b.truth_total);
    EXPECT_EQ(a.observed.abit, b.observed.abit);
    EXPECT_EQ(a.observed.trace, b.observed.trace);
    EXPECT_EQ(a.observed.writes, b.observed.writes);
    EXPECT_EQ(a.new_pages, b.new_pages);
  }
}

TEST(SeriesIo, EvaluationIdenticalAfterRoundTrip) {
  const EpochSeries original = sample_series();
  std::stringstream buffer;
  save_series(original, buffer);
  const EpochSeries loaded = load_series(buffer);
  HitrateOptions opt;
  opt.capacity_frames = 3;
  HistoryPolicy a, b;
  EXPECT_DOUBLE_EQ(evaluate_policy(a, original, opt).overall,
                   evaluate_policy(b, loaded, opt).overall);
}

TEST(SeriesIo, RejectsBadHeader) {
  std::stringstream buffer("not-a-series\n");
  EXPECT_THROW(load_series(buffer), std::runtime_error);
}

TEST(SeriesIo, RejectsTruncatedEpoch) {
  const EpochSeries original = sample_series();
  std::stringstream buffer;
  save_series(original, buffer);
  std::string text = buffer.str();
  text.resize(text.rfind("end"));  // chop the final end marker
  std::stringstream chopped(text);
  EXPECT_THROW(load_series(chopped), std::runtime_error);
}

TEST(SeriesIo, RejectsGarbageLines) {
  std::stringstream buffer("tmprof-series 1\nbogus 1 2 3\n");
  EXPECT_THROW(load_series(buffer), std::runtime_error);
}

TEST(SeriesIo, FileRoundTrip) {
  const EpochSeries original = sample_series();
  const std::string path =
      ::testing::TempDir() + "tmprof_series_FileRoundTrip.txt";
  save_series_file(original, path);
  const EpochSeries loaded = load_series_file(path);
  EXPECT_EQ(loaded.epochs.size(), original.epochs.size());
  EXPECT_THROW(load_series_file("/nonexistent/series.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace tmprof::tiering
