/// Property tests for the probabilistic hotness front-end (docs/SKETCH.md):
/// the count-min sketch's one-sided error guarantee (never undercounts, and
/// overcounts beyond the epsilon-delta bound are as rare as advertised),
/// the Bloom filter's no-false-negative guarantee, determinism of the
/// seeded hash families, the shard-merge invariants, and the HotnessStore
/// wrapper's exact/sketch behavioral contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/hotness.hpp"
#include "tiering/policies.hpp"
#include "util/ckpt.hpp"
#include "util/rng.hpp"
#include "util/sketch.hpp"
#include "util/zipf.hpp"

namespace tmprof {
namespace {

using core::PageKey;

PageKey key_of(std::uint64_t page) {
  return PageKey{1 + static_cast<mem::Pid>(page % 4),
                 page * mem::kPageSize};
}

// ---------------------------------------------------------------------------
// CountMinSketch

class SketchCms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SketchCms, NeverUndercounts) {
  util::Rng rng(GetParam());
  util::CountMinSketch cms(1024, 4, 7);
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t fp = rng.below(4096) * 0x9e3779b9ULL;
    const auto n = static_cast<std::uint32_t>(1 + rng.below(8));
    cms.add(fp, n);
    reference[fp] += n;
  }
  for (const auto& [fp, count] : reference) {
    ASSERT_GE(cms.estimate(fp), count) << "undercount for fp " << fp;
  }
}

TEST_P(SketchCms, ErrorWithinEpsilonDeltaBound) {
  // Pr[estimate > true + eps * N] <= delta with eps = e/width and
  // delta = e^-depth. Conservative update only tightens this, so the
  // measured violation fraction must sit at or below delta.
  util::Rng rng(GetParam() * 977 + 5);
  util::CountMinSketch cms(2048, 4, 11);
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  reference.reserve(5000);
  for (int i = 0; i < 60000; ++i) {
    const std::uint64_t fp = util::U64Hash{}(rng.below(5000));
    cms.add(fp, 1);
    reference[fp] += 1;
  }
  const double bound =
      cms.epsilon() * static_cast<double>(cms.added());  // eps * N
  std::uint64_t violations = 0;
  for (const auto& [fp, count] : reference) {
    if (static_cast<double>(cms.estimate(fp) - count) > bound) ++violations;
  }
  const double fraction =
      static_cast<double>(violations) / static_cast<double>(reference.size());
  EXPECT_LE(fraction, cms.delta())
      << violations << " of " << reference.size() << " keys exceed eps*N="
      << bound;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SketchCms,
                         ::testing::Values(1ULL, 42ULL, 20260807ULL));

TEST(Sketch, CmsDeterministicAndSeedSensitive) {
  auto fill = [](util::CountMinSketch& cms) {
    util::Rng rng(3);
    for (int i = 0; i < 5000; ++i) cms.add(rng.below(1 << 16), 1);
  };
  util::CountMinSketch a(512, 4, 99);
  util::CountMinSketch b(512, 4, 99);
  util::CountMinSketch c(512, 4, 100);
  fill(a);
  fill(b);
  fill(c);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different hash family, different cells
}

TEST(Sketch, CmsMergePreservesNoUndercount) {
  // Conservative update keeps every cell a key hashes to >= that key's
  // true count, so the cell-wise saturating shard merge cannot undercount.
  util::Rng rng(17);
  std::vector<util::CountMinSketch> shards(
      4, util::CountMinSketch(1024, 4, 123));
  util::CountMinSketch merged(1024, 4, 123);
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t fp = rng.below(3000) * 0x100000001b3ULL;
    shards[fp % 4].add(fp, 1);
    reference[fp] += 1;
  }
  std::uint64_t shard_total = 0;
  for (const util::CountMinSketch& shard : shards) {
    merged.merge_add(shard);
    shard_total += shard.added();
  }
  EXPECT_EQ(merged.added(), shard_total);
  for (const auto& [fp, count] : reference) {
    ASSERT_GE(merged.estimate(fp), count);
  }
}

TEST(Sketch, CmsMergeShapeMismatchThrows) {
  util::CountMinSketch a(512, 4, 1);
  util::CountMinSketch b(1024, 4, 1);
  util::CountMinSketch c(512, 4, 2);
  EXPECT_THROW(a.merge_add(b), std::logic_error);
  EXPECT_THROW(a.merge_add(c), std::logic_error);
}

TEST(Sketch, CmsSaturatesInsteadOfWrapping) {
  util::CountMinSketch cms(64, 2, 5);
  const std::uint64_t fp = 0xdeadbeefULL;
  for (int i = 0; i < 3; ++i) cms.add(fp, 0xffffffffu);
  EXPECT_EQ(cms.estimate(fp), 0xffffffffull);  // clamped, not wrapped
  // Merging two saturated sketches saturates too.
  util::CountMinSketch other(64, 2, 5);
  other.add(fp, 0xffffffffu);
  cms.merge_add(other);
  EXPECT_EQ(cms.estimate(fp), 0xffffffffull);
}

TEST(Sketch, CmsClearRetainsShapeAndZeroes) {
  util::CountMinSketch cms(256, 3, 9);
  cms.add(1, 5);
  cms.clear();
  EXPECT_EQ(cms.added(), 0u);
  EXPECT_EQ(cms.estimate(1), 0u);
  EXPECT_EQ(cms.width(), 256u);
}

TEST(Sketch, CmsWidthRoundsUpToPowerOfTwo) {
  util::CountMinSketch cms(1000, 2, 1);
  EXPECT_EQ(cms.width(), 1024u);
}

TEST(Sketch, CmsCheckpointRoundTripAndShapeRejection) {
  util::CountMinSketch cms(512, 4, 77);
  util::Rng rng(8);
  for (int i = 0; i < 10000; ++i) cms.add(rng.below(2000), 1);

  util::ckpt::Writer w;
  w.begin_section("sketch");
  cms.save_state(w);
  w.end_section();
  const std::vector<std::uint8_t> image = w.finish();

  util::CountMinSketch restored(512, 4, 77);
  util::ckpt::Reader r(image);
  r.enter_section("sketch");
  restored.load_state(r, "sketch");
  r.end_section();
  EXPECT_EQ(cms, restored);

  util::CountMinSketch wrong_shape(1024, 4, 77);
  util::ckpt::Reader r2(image);
  r2.enter_section("sketch");
  EXPECT_THROW(wrong_shape.load_state(r2, "sketch"), util::ckpt::CkptError);
}

// ---------------------------------------------------------------------------
// BloomFilter

class SketchBloom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SketchBloom, NoFalseNegatives) {
  util::Rng rng(GetParam());
  util::BloomFilter bloom(1 << 16, 4, 21);
  std::vector<std::uint64_t> inserted;
  for (int i = 0; i < 8000; ++i) {
    inserted.push_back(rng());
    bloom.insert(inserted.back());
  }
  for (const std::uint64_t fp : inserted) {
    ASSERT_TRUE(bloom.maybe_contains(fp)) << "false negative for " << fp;
  }
}

TEST_P(SketchBloom, InsertReportsSeenKeysAsSeen) {
  // insert() returning true means "definitely new": it must never return
  // true for a fingerprint inserted before.
  util::Rng rng(GetParam() + 31);
  util::BloomFilter bloom(1 << 15, 4, 3);
  std::unordered_set<std::uint64_t> seen;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t fp = rng.below(4000) * 0x9e3779b97f4a7c15ULL;
    const bool definitely_new = bloom.insert(fp);
    if (definitely_new) {
      ASSERT_EQ(seen.count(fp), 0u)
          << "bloom declared a seen key definitely new";
    }
    seen.insert(fp);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SketchBloom,
                         ::testing::Values(2ULL, 777ULL));

TEST(Sketch, BloomFalsePositiveRateSane) {
  // n = 8192 keys into m = 2^17 bits with k = 4: theoretical fp rate
  // (1 - e^{-kn/m})^k ~= 0.3%. Allow generous slack; the point is that the
  // filter hashes well, not to certify the constant.
  util::BloomFilter bloom(1 << 17, 4, 12);
  util::Rng rng(55);
  for (int i = 0; i < 8192; ++i) bloom.insert(rng());
  std::uint64_t false_positives = 0;
  const int probes = 100000;
  util::Rng probe_rng(991);  // disjoint stream from the inserted keys
  for (int i = 0; i < probes; ++i) {
    if (bloom.maybe_contains(probe_rng() | 1)) ++false_positives;
  }
  EXPECT_LT(static_cast<double>(false_positives) / probes, 0.02);
}

TEST(Sketch, BloomCheckpointRoundTrip) {
  util::BloomFilter bloom(1 << 12, 4, 44);
  util::Rng rng(13);
  for (int i = 0; i < 500; ++i) bloom.insert(rng());

  util::ckpt::Writer w;
  w.begin_section("bloom");
  bloom.save_state(w);
  w.end_section();
  const std::vector<std::uint8_t> image = w.finish();

  util::BloomFilter restored(1 << 12, 4, 44);
  util::ckpt::Reader r(image);
  r.enter_section("bloom");
  restored.load_state(r, "bloom");
  r.end_section();
  EXPECT_EQ(bloom, restored);

  util::BloomFilter wrong(1 << 12, 3, 44);
  util::ckpt::Reader r2(image);
  r2.enter_section("bloom");
  EXPECT_THROW(wrong.load_state(r2, "bloom"), util::ckpt::CkptError);
}

// ---------------------------------------------------------------------------
// HotnessStore / HotnessSet

core::HotnessConfig sketch_config(std::uint32_t width, std::uint32_t cap) {
  core::HotnessConfig config;
  config.mode = core::HotnessMode::Sketch;
  config.sketch.width = width;
  config.sketch.depth = 4;
  config.sketch.seed = 4242;
  config.sketch.bloom_bits = 1 << 16;
  config.candidates = cap;
  return config;
}

TEST(Sketch, HotnessStoreExactMatchesPlainMap) {
  core::HotnessCounts store;  // default config = exact
  core::PageCountMap reference;
  util::Rng rng(5);
  for (int i = 0; i < 30000; ++i) {
    const PageKey key = key_of(rng.below(2000));
    store.add(key);
    reference[key] += 1;
  }
  EXPECT_EQ(store.total(), 30000u);
  EXPECT_EQ(store.tracked(), reference.size());
  EXPECT_EQ(store.exact_counts(), reference);
  core::PageCountMap out;
  EXPECT_EQ(store.end_epoch_into(out), 30000u);
  EXPECT_EQ(out, reference);
  EXPECT_EQ(store.total(), 0u);
  EXPECT_EQ(store.tracked(), 0u);
}

TEST(Sketch, HotnessStoreSketchNeverUndercountsWithinCap) {
  // With the candidate cap above the distinct-key count every key stays a
  // candidate, so the materialized epoch map must cover every key with an
  // estimate >= its true count — and the total must be exact.
  core::HotnessTruth store(sketch_config(4096, 4096));
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  util::Rng rng(23);
  std::uint64_t total = 0;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t page = rng.below(1500);
    store.add(key_of(page));
    reference[page] += 1;
    ++total;
  }
  EXPECT_EQ(store.total(), total);
  core::TruthMap out;
  EXPECT_EQ(store.end_epoch_into(out), total);
  ASSERT_EQ(out.size(), reference.size());
  for (const auto& [page, count] : reference) {
    const auto it = out.find(key_of(page));
    ASSERT_NE(it, out.end());
    ASSERT_GE(it->second, count);
  }
}

TEST(Sketch, HotnessStoreCandidateCapBoundsTrackingAndKeepsHotKeys) {
  const std::uint32_t cap = 1024;
  core::HotnessCounts store(sketch_config(16384, cap));
  core::PageCountMap reference;
  util::Rng rng(77);
  util::ZipfDistribution zipf(20000, 0.99);
  for (int i = 0; i < 200000; ++i) {
    const PageKey key = key_of(zipf(rng));
    store.add(key);
    reference[key] += 1;
    ASSERT_LE(store.tracked(), cap + 1u);  // compaction triggers above cap
  }
  // The exact top-64 must have survived candidate compaction.
  std::vector<std::pair<std::uint32_t, PageKey>> hot;
  for (const auto& [key, count] : reference) hot.emplace_back(count, key);
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return b.second < a.second;
  });
  core::PageCountMap out;
  store.end_epoch_into(out);
  EXPECT_LE(out.size(), cap);
  for (std::size_t i = 0; i < 64 && i < hot.size(); ++i) {
    const auto it = out.find(hot[i].second);
    ASSERT_NE(it, out.end()) << "hot rank " << i << " evicted";
    ASSERT_GE(it->second, hot[i].first);
  }
}

TEST(Sketch, HotnessStoreModeAccessorsThrowAcrossModes) {
  core::HotnessCounts exact_store;
  EXPECT_NO_THROW(static_cast<void>(exact_store.exact_counts()));
  EXPECT_THROW(static_cast<void>(exact_store.sketch()), std::logic_error);

  core::HotnessCounts sketch_store(sketch_config(1024, 256));
  EXPECT_THROW(static_cast<void>(sketch_store.exact_counts()),
               std::logic_error);
  EXPECT_NO_THROW(static_cast<void>(sketch_store.sketch()));
}

TEST(Sketch, HotnessStoreMergeFromIsDeterministic) {
  auto run = [] {
    std::vector<core::HotnessTruth> shards;
    for (int s = 0; s < 4; ++s) {
      shards.emplace_back(sketch_config(2048, 512));
    }
    core::HotnessTruth merged(sketch_config(2048, 512));
    util::Rng rng(3);
    for (int i = 0; i < 60000; ++i) {
      const std::uint64_t page = rng.below(3000);
      shards[page % 4].add(key_of(page));
    }
    for (auto& shard : shards) merged.merge_from(shard);
    core::TruthMap out;
    util::ckpt::Writer w;
    w.begin_section("out");
    merged.save_state(w, "out");
    w.end_section();
    return w.finish();
  };
  EXPECT_EQ(run(), run());
}

TEST(Sketch, HotnessStoreCheckpointRoundTripAndModeMismatch) {
  core::HotnessCounts store(sketch_config(2048, 512));
  util::Rng rng(9);
  for (int i = 0; i < 40000; ++i) store.add(key_of(rng.below(4000)));

  util::ckpt::Writer w;
  w.begin_section("store");
  store.save_state(w, "store");
  w.end_section();
  const std::vector<std::uint8_t> image = w.finish();

  core::HotnessCounts restored(sketch_config(2048, 512));
  util::ckpt::Reader r(image);
  r.enter_section("store");
  restored.load_state(r, "store");
  r.end_section();
  EXPECT_EQ(store, restored);

  core::HotnessCounts exact_store;  // exact mode must reject a sketch image
  util::ckpt::Reader r2(image);
  r2.enter_section("store");
  EXPECT_THROW(exact_store.load_state(r2, "store"), util::ckpt::CkptError);

  core::HotnessCounts wrong_cap(sketch_config(2048, 1024));
  util::ckpt::Reader r3(image);
  r3.enter_section("store");
  EXPECT_THROW(wrong_cap.load_state(r3, "store"), util::ckpt::CkptError);
}

TEST(Sketch, HotnessSetExactAndSketchInsertSemantics) {
  core::HotnessConfig config = sketch_config(1024, 256);
  core::PageHotnessSet sketch_set(config);
  core::PageHotnessSet exact_set;  // default exact
  std::unordered_set<std::uint64_t> reference;
  util::Rng rng(41);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t page = rng.below(5000);
    const bool truly_new = reference.insert(page).second;
    EXPECT_EQ(exact_set.insert(key_of(page)), truly_new);
    const bool sketch_new = sketch_set.insert(key_of(page));
    // Bloom may miss a genuinely new key (false positive), never invent
    // one: "definitely new" implies truly new.
    if (sketch_new) {
      ASSERT_TRUE(truly_new);
    }
    ASSERT_TRUE(sketch_set.maybe_contains(key_of(page)));
  }
  EXPECT_EQ(exact_set.size(), reference.size());
  EXPECT_LE(sketch_set.size(), reference.size());
}

TEST(Sketch, ParseHotnessModeRoundTrip) {
  EXPECT_EQ(core::parse_hotness_mode("exact"), core::HotnessMode::Exact);
  EXPECT_EQ(core::parse_hotness_mode("sketch"), core::HotnessMode::Sketch);
  EXPECT_THROW(static_cast<void>(core::parse_hotness_mode("fuzzy")),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Freq-decay policy under a sketch-mode (bounded) configuration.

TEST(Sketch, FreqDecayPolicyBoundsScoreTableDeterministically) {
  core::HotnessConfig config = sketch_config(2048, 128);
  tiering::FrequencyDecayPolicy bounded(0.5, config);
  tiering::FrequencyDecayPolicy unbounded(0.5);

  util::Rng rng(19);
  util::ZipfDistribution zipf(4000, 0.99);
  tiering::PlacementSet bounded_placement;
  tiering::PlacementSet unbounded_placement;
  for (int epoch = 0; epoch < 6; ++epoch) {
    // Synthetic observed ranking: zipf-hot pages with descending rank.
    core::PageCountMap counts;
    for (int i = 0; i < 20000; ++i) counts[key_of(zipf(rng))] += 1;
    std::vector<core::PageRank> ranking;
    ranking.reserve(counts.size());
    for (const auto& [key, count] : counts) {
      core::PageRank pr;
      pr.key = key;
      pr.rank = count;
      ranking.push_back(pr);
    }
    std::sort(ranking.begin(), ranking.end(), core::RankOrder{});
    tiering::PolicyContext ctx;
    ctx.capacity_frames = 64;
    ctx.observed_ranking = &ranking;
    bounded_placement = bounded.choose(ctx);
    unbounded_placement = unbounded.choose(ctx);
    ASSERT_LE(bounded.tracked(), 128u);
  }
  // The bounded policy must still place the hottest pages: placements of
  // bounded and unbounded runs agree except possibly at the cold margin.
  std::size_t common = 0;
  for (const auto& key : bounded_placement) {
    common += unbounded_placement.count(key);
  }
  EXPECT_GE(common * 10, bounded_placement.size() * 9)
      << "bounded freq-decay diverged from unbounded on the hot set";
}

}  // namespace
}  // namespace tmprof
