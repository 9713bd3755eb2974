#include "core/ranking.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tmprof::core {
namespace {

EpochObservation make_obs() {
  EpochObservation obs;
  const PageKey a{1, 0x1000};
  const PageKey b{1, 0x2000};
  const PageKey c{2, 0x1000};
  obs.abit[a] = 3;
  obs.abit[b] = 1;
  obs.trace[b] = 10;
  obs.trace[c] = 4;
  return obs;
}

TEST(Ranking, SumFusesBothSources) {
  const auto ranked = build_ranking(make_obs(), FusionMode::Sum);
  ASSERT_EQ(ranked.size(), 3U);
  EXPECT_EQ(ranked[0].key, (PageKey{1, 0x2000}));
  EXPECT_EQ(ranked[0].rank, 11U);
  EXPECT_EQ(ranked[0].abit, 1U);
  EXPECT_EQ(ranked[0].trace, 10U);
  EXPECT_EQ(ranked[1].rank, 4U);
  EXPECT_EQ(ranked[2].rank, 3U);
}

TEST(Ranking, AbitOnlyIgnoresTrace) {
  const auto ranked = build_ranking(make_obs(), FusionMode::AbitOnly);
  ASSERT_EQ(ranked.size(), 2U);
  EXPECT_EQ(ranked[0].key, (PageKey{1, 0x1000}));
  EXPECT_EQ(ranked[0].rank, 3U);
  for (const PageRank& pr : ranked) EXPECT_EQ(pr.trace, 0U);
}

TEST(Ranking, TraceOnlyIgnoresAbit) {
  const auto ranked = build_ranking(make_obs(), FusionMode::TraceOnly);
  ASSERT_EQ(ranked.size(), 2U);
  EXPECT_EQ(ranked[0].key, (PageKey{1, 0x2000}));
  EXPECT_EQ(ranked[0].rank, 10U);
}

TEST(Ranking, MaxFusion) {
  const auto ranked = build_ranking(make_obs(), FusionMode::Max);
  EXPECT_EQ(ranked[0].rank, 10U);  // max(1, 10)
}

TEST(Ranking, WeightedFusion) {
  const auto ranked = build_ranking(make_obs(), FusionMode::Weighted, 0.5);
  // b: 1 + 0.5*10 = 6; c: 0.5*4 = 2; a: 3.
  EXPECT_EQ(ranked[0].rank, 6U);
  EXPECT_EQ(ranked[1].rank, 3U);
  EXPECT_EQ(ranked[2].rank, 2U);
}

TEST(Ranking, DeterministicTieBreak) {
  EpochObservation obs;
  obs.abit[PageKey{1, 0x3000}] = 2;
  obs.abit[PageKey{1, 0x1000}] = 2;
  obs.abit[PageKey{1, 0x2000}] = 2;
  const auto ranked = build_ranking(obs, FusionMode::Sum);
  ASSERT_EQ(ranked.size(), 3U);
  EXPECT_LT(ranked[0].key, ranked[1].key);
  EXPECT_LT(ranked[1].key, ranked[2].key);
}

TEST(Ranking, EmptyObservationGivesEmptyRanking) {
  EpochObservation obs;
  EXPECT_TRUE(build_ranking(obs, FusionMode::Sum).empty());
}

TEST(Ranking, FusionNames) {
  EXPECT_EQ(to_string(FusionMode::Sum), "sum");
  EXPECT_EQ(to_string(FusionMode::AbitOnly), "abit-only");
  EXPECT_EQ(to_string(FusionMode::TraceOnly), "trace-only");
}

/// Every field must match, not just the (rank, key) sort keys. Field-wise
/// rather than memcmp so struct padding bytes cannot fake a mismatch.
bool bitwise_equal(const PageRank& a, const PageRank& b) {
  return a.key == b.key && a.rank == b.rank && a.abit == b.abit &&
         a.trace == b.trace && a.devmon == b.devmon;
}

TEST(Ranking, BuildIntoReusesBuffers) {
  // _into variants must fully overwrite prior contents of out.
  RankingScratch scratch;
  std::vector<PageRank> out;
  build_ranking_into(make_obs(), FusionMode::Sum, 1.0, scratch, out);
  const std::vector<PageRank> first = out;
  EpochObservation small;
  small.abit[PageKey{7, 0x9000}] = 5;
  build_ranking_into(small, FusionMode::Sum, 1.0, scratch, out);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].key, (PageKey{7, 0x9000}));
  build_ranking_into(make_obs(), FusionMode::Sum, 1.0, scratch, out);
  ASSERT_EQ(out.size(), first.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(out[i], first[i]));
  }
}

}  // namespace
}  // namespace tmprof::core
