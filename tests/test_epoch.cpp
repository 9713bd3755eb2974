#include "tiering/epoch.hpp"

#include <gtest/gtest.h>

namespace tmprof::tiering {
namespace {

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 15;
  cfg.tier2_frames = 1 << 16;
  return cfg;
}

CollectOptions fast_options(std::uint32_t epochs = 3) {
  CollectOptions opt;
  opt.n_epochs = epochs;
  opt.ops_per_epoch = 50000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(512);
  return opt;
}

TEST(EpochCollect, ProducesOneRecordPerEpoch) {
  const auto spec = workloads::find_spec("gups", 0.1);
  const EpochSeries series =
      collect_series(spec, small_config(), fast_options(4));
  ASSERT_EQ(series.epochs.size(), 4U);
  for (std::size_t e = 0; e < 4; ++e) {
    EXPECT_EQ(series.epochs[e].epoch, e);
    EXPECT_GT(series.epochs[e].truth_total, 0U);
    EXPECT_FALSE(series.epochs[e].truth.empty());
  }
}

TEST(EpochCollect, TruthTotalsMatchPerPageSums) {
  const auto spec = workloads::find_spec("data_caching", 0.1);
  const EpochSeries series =
      collect_series(spec, small_config(), fast_options());
  for (const EpochData& data : series.epochs) {
    std::uint64_t sum = 0;
    for (const auto& [key, count] : data.truth) sum += count;
    EXPECT_EQ(sum, data.truth_total);
  }
}

TEST(EpochCollect, NewPagesAppearExactlyOnce) {
  const auto spec = workloads::find_spec("web_serving", 0.2);
  const EpochSeries series =
      collect_series(spec, small_config(), fast_options());
  std::unordered_set<PageKey, PageKeyHash> seen;
  for (const EpochData& data : series.epochs) {
    for (const PageKey& key : data.new_pages) {
      EXPECT_TRUE(seen.insert(key).second);
    }
  }
  // Every page with truth counts was announced as new at some point.
  for (const EpochData& data : series.epochs) {
    for (const auto& [key, count] : data.truth) {
      EXPECT_TRUE(seen.count(key));
    }
  }
}

TEST(EpochCollect, ShardedFoldKeepsTotalsAndFirstTouches) {
  // The sharded engine counts into per-core shards that fold at the epoch
  // barrier; the folded epochs keep the serial engine's invariants.
  const auto spec = workloads::find_spec("web_serving", 0.2);
  CollectOptions opt = fast_options();
  opt.n_threads = 1;
  const EpochSeries series = collect_series(spec, small_config(), opt);
  std::unordered_set<PageKey, PageKeyHash> seen;
  for (const EpochData& data : series.epochs) {
    std::uint64_t sum = 0;
    for (const auto& [key, count] : data.truth) {
      sum += count;
      EXPECT_TRUE(series.page_sizes.count(key));
    }
    EXPECT_EQ(sum, data.truth_total);
    for (const PageKey& key : data.new_pages) {
      EXPECT_TRUE(seen.insert(key).second);
    }
  }
  EXPECT_EQ(seen.size(), series.page_sizes.size());
}

TEST(EpochCollect, PageSizesMatchWorkloadClass) {
  const auto hpc = workloads::find_spec("gups", 0.1);
  const EpochSeries series =
      collect_series(hpc, small_config(), fast_options(2));
  ASSERT_FALSE(series.page_sizes.empty());
  for (const auto& [key, size] : series.page_sizes) {
    EXPECT_EQ(size, mem::PageSize::k2M);
  }
  EXPECT_EQ(series.footprint_frames,
            series.page_sizes.size() * mem::kPagesPerHuge);
}

TEST(EpochCollect, DeterministicUnderSeed) {
  const auto spec = workloads::find_spec("graph500", 0.1);
  const EpochSeries a = collect_series(spec, small_config(), fast_options(2));
  const EpochSeries b = collect_series(spec, small_config(), fast_options(2));
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].truth_total, b.epochs[e].truth_total);
    EXPECT_EQ(a.epochs[e].truth.size(), b.epochs[e].truth.size());
  }
}

TEST(EpochCollect, ObservationsArriveFromBothMethods) {
  const auto spec = workloads::find_spec("gups", 0.1);
  const EpochSeries series =
      collect_series(spec, small_config(), fast_options());
  std::uint64_t abit = 0, trace = 0;
  for (const EpochData& data : series.epochs) {
    abit += data.observed.abit.size();
    trace += data.observed.trace.size();
  }
  EXPECT_GT(abit, 0U);
  EXPECT_GT(trace, 0U);
}

}  // namespace
}  // namespace tmprof::tiering
