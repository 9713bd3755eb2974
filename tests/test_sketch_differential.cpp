/// Differential exact-vs-sketch harness (the PR's headline deliverable):
/// the same simulated workload is collected twice — once with the exact
/// FlatHashMap hotness front-end and once with the count-min-sketch store —
/// and the two runs are compared end to end: per-epoch truth totals must
/// match exactly, per-page counts must never undercount, hit-rate curves
/// must agree within tolerance for every policy × fusion combination, and
/// sketch mode must keep the bitwise thread-count-invariance guarantee the
/// exact engine already has.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/hotness.hpp"
#include "tiering/epoch.hpp"
#include "tiering/hitrate.hpp"
#include "tiering/policies.hpp"
#include "util/ckpt.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "workloads/registry.hpp"

namespace tmprof::tiering {
namespace {

using core::PageKey;

sim::SimConfig tiny_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 9;
  cfg.tier2_frames = 1 << 14;
  return cfg;
}

CollectOptions tiny_collect(const core::HotnessConfig& hotness) {
  CollectOptions opt;
  opt.n_epochs = 5;
  opt.ops_per_epoch = 30000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(256);
  opt.daemon.driver.hotness = hotness;
  return opt;
}

core::HotnessConfig sketch_hotness() {
  core::HotnessConfig config;
  config.mode = core::HotnessMode::Sketch;
  config.sketch.width = 1 << 14;
  config.sketch.depth = 4;
  config.sketch.bloom_bits = 1 << 20;
  // Above the tiny workloads' footprint: no candidate eviction, so every
  // touched page is materialized and the no-undercount comparison below
  // can demand full key coverage.
  config.candidates = 1 << 13;
  return config;
}

std::vector<std::uint8_t> series_image(const EpochSeries& series) {
  util::ckpt::Writer w;
  w.begin_section("series");
  save_series(w, series);
  w.end_section();
  return w.finish();
}

/// Both series for one workload, collected from identical streams.
struct SeriesPair {
  EpochSeries exact;
  EpochSeries sketch;
};

SeriesPair collect_pair() {
  const auto spec = workloads::find_spec("gups", 0.05);
  SeriesPair pair;
  pair.exact = collect_series(spec, tiny_config(), tiny_collect({}));
  pair.sketch =
      collect_series(spec, tiny_config(), tiny_collect(sketch_hotness()));
  return pair;
}

TEST(SketchDifferential, TruthTotalsMatchExactlyAndCountsNeverUndercount) {
  const SeriesPair pair = collect_pair();
  ASSERT_EQ(pair.sketch.epochs.size(), pair.exact.epochs.size());
  EXPECT_EQ(pair.sketch.page_sizes, pair.exact.page_sizes);
  EXPECT_EQ(pair.sketch.footprint_frames, pair.exact.footprint_frames);
  for (std::size_t e = 0; e < pair.exact.epochs.size(); ++e) {
    const EpochData& exact = pair.exact.epochs[e];
    const EpochData& sketch = pair.sketch.epochs[e];
    // The truth total is a plain accumulator in both modes — exact always.
    ASSERT_EQ(sketch.truth_total, exact.truth_total) << "epoch " << e;
    // With the candidate cap above the footprint, every truly-touched page
    // is materialized with a one-sided (>= true) estimate.
    for (const auto& [key, count] : exact.truth) {
      const auto it = sketch.truth.find(key);
      ASSERT_NE(it, sketch.truth.end())
          << "epoch " << e << " lost page " << key.page_va;
      ASSERT_GE(it->second, count) << "epoch " << e << " undercounted";
    }
  }
}

TEST(SketchDifferential, NewPagesAreASubsetOfExactFirstTouches) {
  // Bloom false positives can only *hide* a first touch, never invent one:
  // sketch-mode new_pages must be a per-epoch subset of exact new_pages,
  // and a page may appear at most once across the whole run.
  const SeriesPair pair = collect_pair();
  std::unordered_set<std::uint64_t> reported;
  auto fp = [](const PageKey& key) {
    return key.page_va ^ (static_cast<std::uint64_t>(key.pid) << 48);
  };
  std::size_t sketch_total = 0;
  std::size_t exact_total = 0;
  for (std::size_t e = 0; e < pair.exact.epochs.size(); ++e) {
    std::unordered_set<std::uint64_t> exact_new;
    for (const PageKey& key : pair.exact.epochs[e].new_pages) {
      exact_new.insert(fp(key));
    }
    exact_total += exact_new.size();
    for (const PageKey& key : pair.sketch.epochs[e].new_pages) {
      ASSERT_TRUE(exact_new.count(fp(key)) != 0)
          << "epoch " << e << " invented first touch of " << key.page_va;
      ASSERT_TRUE(reported.insert(fp(key)).second)
          << "page double-reported as new";
      ++sketch_total;
    }
  }
  // The Bloom filter is sized generously for the tiny footprint, so nearly
  // every first touch must still be detected.
  EXPECT_GE(sketch_total * 100, exact_total * 99)
      << sketch_total << " of " << exact_total << " first touches detected";
}

TEST(SketchDifferential, HitrateCurvesMatchAcrossPoliciesAndFusions) {
  const SeriesPair pair = collect_pair();
  const core::HotnessConfig hotness = sketch_hotness();
  const core::FusionMode fusions[] = {
      core::FusionMode::Sum, core::FusionMode::AbitOnly,
      core::FusionMode::TraceOnly, core::FusionMode::Max,
      core::FusionMode::Weighted};
  for (const std::string_view name : policy_names()) {
    const std::string policy(name);
    for (const core::FusionMode fusion : fusions) {
      HitrateOptions opt;
      opt.capacity_frames = 1 << 9;
      opt.fusion = fusion;
      opt.trace_weight = 2.0;
      const auto exact_policy = make_policy(policy);
      const auto sketch_policy = make_policy(policy, hotness);
      const HitrateResult exact =
          evaluate_policy(*exact_policy, pair.exact, opt);
      const HitrateResult sketch =
          evaluate_policy(*sketch_policy, pair.sketch, opt);
      EXPECT_EQ(sketch.total_accesses, exact.total_accesses);
      EXPECT_NEAR(sketch.overall, exact.overall, 0.05)
          << policy << " x " << core::to_string(fusion);
      ASSERT_EQ(sketch.per_epoch.size(), exact.per_epoch.size());
      for (std::size_t e = 0; e < exact.per_epoch.size(); ++e) {
        EXPECT_NEAR(sketch.per_epoch[e], exact.per_epoch[e], 0.10)
            << policy << " x " << core::to_string(fusion) << " epoch " << e;
      }
    }
  }
}

TEST(SketchDifferential, SketchModeIsBitwiseThreadCountInvariant) {
  // The exact engine's headline guarantee carries over: shard sketches are
  // merged by cell-wise saturating add in ascending shard order at the
  // epoch barrier, so any thread count >= 1 yields identical bytes.
  const auto spec = workloads::find_spec("gups", 0.05);
  CollectOptions one = tiny_collect(sketch_hotness());
  one.n_threads = 1;
  CollectOptions eight = tiny_collect(sketch_hotness());
  eight.n_threads = 8;
  const EpochSeries a = collect_series(spec, tiny_config(), one);
  const EpochSeries b = collect_series(spec, tiny_config(), eight);
  EXPECT_EQ(series_image(a), series_image(b));
}

TEST(SketchDifferential, ExactModeUnchangedBySkeletonDefault) {
  // A default HotnessConfig must reproduce the historical exact engine
  // byte for byte (the refactor is invisible unless sketch mode is asked
  // for).
  const auto spec = workloads::find_spec("gups", 0.05);
  CollectOptions defaulted;
  defaulted.n_epochs = 5;
  defaulted.ops_per_epoch = 30000;
  defaulted.daemon.driver.ibs = monitors::IbsConfig::with_period(256);
  const EpochSeries a = collect_series(spec, tiny_config(), defaulted);
  const EpochSeries b = collect_series(spec, tiny_config(), tiny_collect({}));
  EXPECT_EQ(series_image(a), series_image(b));
}

// ---------------------------------------------------------------------------
// Memory-vs-accuracy acceptance: on a Zipf-skewed stream the sketch store
// must reproduce the exact top-64 ranking with >= 95% overlap while holding
// at most 1/8 of the exact store's per-page metadata bytes. (The
// bench/micro_hotpath sweep measures the full grid; this is the gate.)

TEST(SketchDifferential, Top64OverlapAtOneEighthMemory) {
  const std::uint64_t footprint = 1ull << 18;
  core::HotnessConfig config;
  config.mode = core::HotnessMode::Sketch;
  config.sketch.width = 1 << 14;
  config.sketch.depth = 4;
  config.sketch.bloom_bits = 1 << 20;
  config.candidates = 1 << 13;

  core::HotnessCounts exact_store;
  core::HotnessCounts sketch_store(config);
  util::Rng rng(20260807);
  util::ZipfDistribution zipf(footprint, 0.99);
  for (std::uint64_t i = 0; i < (1ull << 20); ++i) {
    const std::uint64_t page = zipf(rng);
    const PageKey key{1, page * mem::kPageSize};
    exact_store.add(key);
    sketch_store.add(key);
  }

  const std::size_t exact_bytes = exact_store.memory_bytes();
  const std::size_t sketch_bytes = sketch_store.memory_bytes();
  EXPECT_LE(sketch_bytes * 8, exact_bytes)
      << "sketch uses " << sketch_bytes << " of " << exact_bytes
      << " exact bytes";

  core::PageCountMap exact_counts;
  core::PageCountMap sketch_counts;
  const std::uint64_t exact_total = exact_store.end_epoch_into(exact_counts);
  const std::uint64_t sketch_total =
      sketch_store.end_epoch_into(sketch_counts);
  EXPECT_EQ(sketch_total, exact_total);

  auto top64 = [](const core::PageCountMap& counts) {
    std::vector<std::pair<std::uint32_t, PageKey>> pages;
    pages.reserve(counts.size());
    for (const auto& [key, count] : counts) pages.emplace_back(count, key);
    std::sort(pages.begin(), pages.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return b.second < a.second;
    });
    if (pages.size() > 64) pages.resize(64);
    std::unordered_set<std::uint64_t> keys;
    for (const auto& [count, key] : pages) keys.insert(key.page_va);
    return keys;
  };
  const auto exact_top = top64(exact_counts);
  const auto sketch_top = top64(sketch_counts);
  std::size_t overlap = 0;
  for (const std::uint64_t va : exact_top) overlap += sketch_top.count(va);
  EXPECT_GE(overlap * 100, exact_top.size() * 95)
      << overlap << " of " << exact_top.size() << " hot pages retained";
}

}  // namespace
}  // namespace tmprof::tiering
