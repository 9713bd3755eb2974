#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace tmprof::util {
namespace {

TEST(Histogram, BucketsValues) {
  Histogram h(0, 100, 10);
  h.add(5);
  h.add(15);
  h.add(15);
  h.add(99);
  EXPECT_EQ(h.count(0), 1U);
  EXPECT_EQ(h.count(1), 2U);
  EXPECT_EQ(h.count(9), 1U);
  EXPECT_EQ(h.total(), 4U);
}

TEST(Histogram, UnderOverflow) {
  Histogram h(10, 20, 2);
  h.add(5);
  h.add(25);
  h.add(15);
  EXPECT_EQ(h.underflow(), 1U);
  EXPECT_EQ(h.overflow(), 1U);
  EXPECT_EQ(h.total(), 3U);
}

TEST(Histogram, WeightedAdds) {
  Histogram h(0, 10, 2);
  h.add(1, 7);
  EXPECT_EQ(h.count(0), 7U);
}

TEST(Histogram, BucketLoEdges) {
  Histogram h(100, 200, 10);
  EXPECT_EQ(h.bucket_lo(0), 100U);
  EXPECT_EQ(h.bucket_lo(5), 150U);
}

TEST(Heatmap, AccumulatesCells) {
  Heatmap hm(100, 10, 1000, 10);
  hm.add(5, 50);
  hm.add(5, 50);
  hm.add(95, 950);
  EXPECT_EQ(hm.at(0, 0), 2U);
  EXPECT_EQ(hm.at(9, 9), 1U);
  EXPECT_EQ(hm.total(), 3U);
  EXPECT_EQ(hm.max_cell(), 2U);
}

TEST(Heatmap, ClipsOutOfRangeWithoutCounting) {
  Heatmap hm(10, 2, 10, 2);
  hm.add(10, 0);
  hm.add(0, 10);
  EXPECT_EQ(hm.total(), 0U);
}

TEST(Heatmap, AsciiRenderHasOneRowPerAddrBin) {
  Heatmap hm(10, 4, 10, 3);
  hm.add(0, 0);
  const std::string art = hm.render_ascii();
  int newlines = 0;
  for (char c : art) newlines += c == '\n' ? 1 : 0;
  EXPECT_EQ(newlines, 3);
  // Low address renders on the bottom row.
  EXPECT_NE(art.rfind('\n', art.size() - 2), std::string::npos);
  EXPECT_NE(art[art.size() - 1 - 4], ' ');
}

TEST(Heatmap, CsvListsNonZeroCells) {
  Heatmap hm(10, 2, 10, 2);
  hm.add(1, 1);
  hm.add(9, 9, 3);
  std::ostringstream os;
  hm.write_csv(os);
  EXPECT_EQ(os.str(), "time_bin,addr_bin,count\n0,0,1\n1,1,3\n");
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(10, 10, 4), AssertionError);
  EXPECT_THROW(Histogram(0, 10, 0), AssertionError);
  EXPECT_THROW(Heatmap(0, 1, 1, 1), AssertionError);
}

// ---------------------------------------------------------------------------
// Shard merges under the telemetry protocol (src/telemetry/metrics.hpp):
// merged-from-empty shards and thread-count invariance.

TEST(Histogram, MergeRequiresSameShape) {
  Histogram a(0, 100, 10);
  Histogram b(0, 100, 5);
  EXPECT_FALSE(a.same_shape(b));
  EXPECT_THROW(a.merge(b), AssertionError);
  const Histogram c(0, 100, 10);
  EXPECT_TRUE(a.same_shape(c));
}

/// Every count a merge touches, in one comparable vector.
std::vector<std::uint64_t> cells(const Histogram& h) {
  std::vector<std::uint64_t> out{h.total(), h.underflow(), h.overflow(),
                                 h.value_sum()};
  for (std::size_t b = 0; b < h.buckets(); ++b) out.push_back(h.count(b));
  return out;
}

TEST(Histogram, MergeFromEmptyShardsIsIdentity) {
  Histogram global(0, 64, 8);
  global.add(7, 3);
  const std::vector<std::uint64_t> before = cells(global);
  Histogram empty(0, 64, 8);
  global.merge(empty);  // empty shard at the barrier: a no-op
  EXPECT_EQ(cells(global), before);
  // Merging *into* an empty global adopts the shard's distribution.
  Histogram fresh(0, 64, 8);
  fresh.merge(global);
  EXPECT_EQ(cells(fresh), before);
}

TEST(Histogram, ShardMergeIsThreadCountInvariant) {
  // The same 4-shard partition of adds, merged after running on worker
  // pools of 1, 2 and 8 threads, must produce identical counts — the
  // telemetry engine's epoch-barrier contract.
  constexpr std::size_t kShards = 4;
  constexpr std::uint64_t kAddsPerShard = 1000;
  std::vector<std::vector<std::uint64_t>> merged;  // one per pool size
  for (const std::uint32_t n_threads : {1U, 2U, 8U}) {
    std::vector<Histogram> shards(kShards, Histogram(0, 4096, 64));
    ThreadPool pool(n_threads);
    pool.parallel_for(kShards, [&shards](std::size_t s) {
      for (std::uint64_t i = 0; i < kAddsPerShard; ++i) {
        // Deterministic per-shard stream, independent of who runs it.
        shards[s].add((s * 2654435761ULL + i * 40503ULL) % 5000);
      }
    });
    Histogram global(0, 4096, 64);
    for (Histogram& shard : shards) {  // ascending shard order, as the
      global.merge(shard);             // registry's merge_shards() does
      shard.reset();
      EXPECT_EQ(shard.total(), 0U);
    }
    EXPECT_EQ(global.total(), kShards * kAddsPerShard);
    merged.push_back(cells(global));
  }
  ASSERT_EQ(merged.size(), 3U);
  EXPECT_EQ(merged[1], merged[0]) << "2 threads vs 1";
  EXPECT_EQ(merged[2], merged[0]) << "8 threads vs 1";
}

}  // namespace
}  // namespace tmprof::util
