/// Tests for the PML write-history path: driver collection of dirty-page
/// log evidence and the WriteHistoryPolicy built on it.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/driver.hpp"
#include "tiering/policies.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof {
namespace {

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 14;
  cfg.tier2_frames = 1 << 14;
  return cfg;
}

TEST(PmlDriver, CollectsWriteEvidenceWhenEnabled) {
  sim::System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(4 << 20, 0.5, 1));
  core::DriverConfig cfg;
  cfg.use_pml = true;
  core::TmpDriver driver(sys, cfg);
  sys.step(20000);
  const core::EpochObservation obs = driver.end_epoch();
  EXPECT_FALSE(obs.writes.empty());
  for (const auto& [key, count] : obs.writes) EXPECT_GE(count, 1U);
}

TEST(PmlDriver, DisabledByDefault) {
  sim::System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(4 << 20, 0.5, 1));
  core::TmpDriver driver(sys, core::DriverConfig{});
  sys.step(20000);
  EXPECT_TRUE(driver.end_epoch().writes.empty());
}

TEST(PmlDriver, WriteCountsBoundedByDirtyTransitions) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  sim::Process& proc = sys.process(pid);
  core::DriverConfig cfg;
  cfg.use_pml = true;
  core::TmpDriver driver(sys, cfg);
  // Three stores to the same page: only the first sets D.
  sys.access(proc, proc.vaddr_of(0), true, 1);
  sys.access(proc, proc.vaddr_of(8), true, 1);
  sys.access(proc, proc.vaddr_of(16), true, 1);
  const core::EpochObservation obs = driver.end_epoch();
  ASSERT_EQ(obs.writes.size(), 1U);
  EXPECT_EQ(obs.writes.begin()->second, 1U);
}

TEST(PmlRanking, WriteCountsRideAlongInPageRank) {
  core::EpochObservation obs;
  const core::PageKey key{1, 0x1000};
  obs.trace[key] = 5;
  obs.writes[key] = 9;
  const auto ranked = core::build_ranking(obs, core::FusionMode::Sum);
  ASSERT_EQ(ranked.size(), 1U);
  EXPECT_EQ(ranked[0].rank, 5U);     // writes don't inflate the fused rank
  EXPECT_EQ(ranked[0].writes, 9U);   // but policies can see them
}

TEST(WriteHistory, BoostsWriteHotPages) {
  std::vector<core::PageRank> ranking;
  core::PageRank read_hot;
  read_hot.key = tiering::PageKey{1, 0x1000};
  read_hot.rank = 10;
  core::PageRank write_hot;
  write_hot.key = tiering::PageKey{1, 0x2000};
  write_hot.rank = 8;
  write_hot.writes = 5;  // 8 + 4.0*5 = 28 beats 10
  ranking = {read_hot, write_hot};

  tiering::PageSizeMap sizes;
  sizes[read_hot.key] = mem::PageSize::k4K;
  sizes[write_hot.key] = mem::PageSize::k4K;
  tiering::PlacementSet current;
  tiering::PolicyContext ctx;
  ctx.capacity_frames = 1;
  ctx.current = &current;
  ctx.observed_ranking = &ranking;
  ctx.page_sizes = &sizes;

  tiering::WriteHistoryPolicy policy(4.0);
  const tiering::PlacementSet chosen = policy.choose(ctx);
  ASSERT_EQ(chosen.size(), 1U);
  EXPECT_TRUE(chosen.count(write_hot.key));
}

TEST(WriteHistory, ZeroWeightDegeneratesToHistory) {
  std::vector<core::PageRank> ranking;
  core::PageRank a;
  a.key = tiering::PageKey{1, 0x1000};
  a.rank = 10;
  core::PageRank b;
  b.key = tiering::PageKey{1, 0x2000};
  b.rank = 8;
  b.writes = 100;
  ranking = {a, b};
  tiering::PageSizeMap sizes;
  sizes[a.key] = sizes[b.key] = mem::PageSize::k4K;
  tiering::PlacementSet current;
  tiering::PolicyContext ctx;
  ctx.capacity_frames = 1;
  ctx.current = &current;
  ctx.observed_ranking = &ranking;
  ctx.page_sizes = &sizes;
  tiering::WriteHistoryPolicy policy(0.0);
  const tiering::PlacementSet chosen = policy.choose(ctx);
  EXPECT_TRUE(chosen.count(a.key));
}

TEST(WriteHistory, FactoryKnowsIt) {
  EXPECT_EQ(tiering::make_policy("write-history")->name(), "write-history");
}

/// PolicyContext::current contract: write-history asks only about ranked
/// keys, so the full tier-1 resident set and just the ranked residents
/// choose the same placement; an empty ranking keeps the full set.
TEST(WriteHistory, NeedsOnlyRankedResidency) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    util::Rng rng(seed);
    auto random_key = [&] {
      return tiering::PageKey{static_cast<mem::Pid>(1 + rng.below(2)),
                              rng.below(96) * mem::kPageSize};
    };
    std::vector<core::PageRank> ranking;
    tiering::PageSizeMap sizes;
    const std::uint64_t n_ranked = 1 + rng.below(40);
    for (std::uint64_t i = 0; i < n_ranked; ++i) {
      core::PageRank pr;
      pr.key = random_key();
      pr.rank = 1 + rng.below(4);
      // Boosted ranks tie too.
      pr.writes = static_cast<std::uint32_t>(rng.below(3));
      ranking.push_back(pr);
      sizes[pr.key] = mem::PageSize::k4K;
    }
    std::stable_sort(ranking.begin(), ranking.end(),
                     [](const core::PageRank& a, const core::PageRank& b) {
                       return a.rank > b.rank;
                     });
    tiering::PlacementSet all_residents;
    for (int i = 0; i < 64; ++i) all_residents.insert(random_key());
    tiering::PlacementSet ranked_residents;
    for (const core::PageRank& pr : ranking) {
      if (all_residents.count(pr.key) != 0) ranked_residents.insert(pr.key);
    }
    tiering::PolicyContext ctx;
    ctx.capacity_frames = 1 + rng.below(30);
    ctx.observed_ranking = &ranking;
    ctx.page_sizes = &sizes;
    tiering::WriteHistoryPolicy policy(1.0);
    ctx.current = &all_residents;
    const tiering::PlacementSet from_all = policy.choose(ctx);
    ctx.current = &ranked_residents;
    EXPECT_EQ(from_all, policy.choose(ctx)) << "seed=" << seed;

    ranking.clear();
    ctx.current = &all_residents;
    EXPECT_EQ(policy.choose(ctx), all_residents) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace tmprof
