/// N-tier topology tests (docs/TOPOLOGY.md): the SimConfig tier-chain
/// model (two-tier shorthand vs explicit chains), and the mover's waterfall
/// over a three-tier chain: huge-page capacity charging and per-hop
/// migration cost.

#include <gtest/gtest.h>

#include "sim/system.hpp"
#include "tiering/mover.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::tiering {
namespace {

TEST(Topology, TierSpecsShimProducesLegacyChain) {
  sim::SimConfig cfg;
  cfg.tier1_frames = 1 << 10;
  cfg.tier2_frames = 1 << 12;
  const std::vector<mem::TierSpec> two = sim::tier_specs(cfg);
  ASSERT_EQ(two.size(), 2U);
  EXPECT_EQ(two[0].name, "tier1-dram");
  EXPECT_EQ(two[0].frames, 1U << 10);
  EXPECT_EQ(two[0].read_latency_ns, 80U);
  EXPECT_EQ(two[0].write_latency_ns, 80U);
  EXPECT_EQ(two[1].name, "tier2-nvm");
  EXPECT_EQ(two[1].frames, 1U << 12);
  EXPECT_EQ(two[1].read_latency_ns, 300U);
  EXPECT_EQ(two[1].write_latency_ns, 600U);
  EXPECT_EQ(two[1].line_transfer_ns, 0U);
}

TEST(Topology, ExplicitChainOverridesShim) {
  sim::SimConfig cfg;
  cfg.tiers = {mem::TierSpec{"hbm", 64, 40, 40, 2},
               mem::TierSpec{"dram", 256, 80, 80, 4},
               mem::TierSpec{"cxl", 1024, 150, 200, 8},
               mem::TierSpec{"nvm", 4096, 300, 600, 16}};
  const std::vector<mem::TierSpec> specs = sim::tier_specs(cfg);
  ASSERT_EQ(specs.size(), 4U);
  for (std::size_t t = 0; t < specs.size(); ++t) {
    EXPECT_EQ(specs[t].name, cfg.tiers[t].name) << t;
    EXPECT_EQ(specs[t].frames, cfg.tiers[t].frames) << t;
    EXPECT_EQ(specs[t].read_latency_ns, cfg.tiers[t].read_latency_ns) << t;
    EXPECT_EQ(specs[t].line_transfer_ns, cfg.tiers[t].line_transfer_ns) << t;
  }
}

TEST(Topology, ExplicitChainDrivesSystemGeometry) {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tiers = {mem::TierSpec{"a", 2, 80, 80, 0},
               mem::TierSpec{"b", 2, 150, 200, 0},
               mem::TierSpec{"c", 64, 300, 600, 0}};
  sim::System sys(cfg);
  EXPECT_EQ(sys.phys().tier_count(), 3U);
  EXPECT_EQ(sys.phys().total_frames(), 68U);
  EXPECT_EQ(sys.phys().tier_of(0), 0);
  EXPECT_EQ(sys.phys().tier_of(2), 1);
  EXPECT_EQ(sys.phys().tier_of(4), 2);
}

// ---------------------------------------------------------------------------
// The mover's waterfall over a chain

/// Touch `pages` distinct 4 KiB pages so first-touch fills the ladder
/// fastest tier first.
void touch_pages(sim::System& sys, mem::Pid pid, std::uint64_t pages) {
  sim::Process& proc = sys.process(pid);
  for (std::uint64_t i = 0; i < pages; ++i) {
    sys.access(proc, proc.vaddr_of(i * mem::kPageSize), false, 1);
  }
}

/// A hot huge page, then a warm and a cold 4 KiB page, all mapped on the
/// bottom of a three-tier chain, waterfalled once over `capacities`.
/// Returns the three pages' tiers after the move.
std::vector<mem::TierId> waterfall_huge_warm_cold(
    const std::vector<std::uint64_t>& capacities) {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tiers = {mem::TierSpec{"a", 1024, 80, 80, 0},
               mem::TierSpec{"b", 512, 150, 200, 0},
               mem::TierSpec{"c", 4096, 300, 600, 0}};
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(8 << 20, 0.0, 1));
  sim::Process& proc = sys.process(pid);
  const mem::VirtAddr huge = proc.vaddr_of(0);
  const mem::VirtAddr warm = proc.vaddr_of(mem::kHugePageSize);
  const mem::VirtAddr cold = warm + mem::kPageSize;
  std::vector<core::PageRank> ranking;
  std::uint64_t rank = 1000;
  for (const mem::VirtAddr va : {huge, warm, cold}) {
    const mem::PageSize size =
        va == huge ? mem::PageSize::k2M : mem::PageSize::k4K;
    const auto pfn = sys.phys().alloc_exact(2, pid, va, size);
    EXPECT_TRUE(pfn.has_value());
    if (pfn) proc.page_table().map(va, *pfn, size);
    core::PageRank pr;
    pr.key = PageKey{pid, va};
    pr.rank = rank--;
    ranking.push_back(pr);
  }
  PageMover mover(sys);
  (void)mover.apply(ranking, capacities);
  std::vector<mem::TierId> tiers;
  for (const mem::VirtAddr va : {huge, warm, cold}) {
    tiers.push_back(
        sys.phys().tier_of(proc.page_table().resolve(va).pte->pfn()));
  }
  return tiers;
}

TEST(Topology, WaterfallChargesFrameCountsOfLargePages) {
  // Exactly the huge page's 512 frames: it fills tier a, the warm page no
  // longer fits beside it and spills to tier b, the cold one stays on the
  // bottom.
  EXPECT_EQ(waterfall_huge_warm_cold({512, 1}),
            (std::vector<mem::TierId>{0, 1, 2}));
  // One frame short: the huge page fits no bounded tier and stays on the
  // bottom, while both 4 KiB pages fit in tier a.
  EXPECT_EQ(waterfall_huge_warm_cold({511, 1}),
            (std::vector<mem::TierId>{2, 0, 0}));
}

TEST(Topology, ApplyTiersChargesPerHopMigrationCost) {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tiers = {mem::TierSpec{"a", 8, 80, 80, 0},
               mem::TierSpec{"b", 2, 150, 200, 0},
               mem::TierSpec{"c", 64, 300, 600, 0}};
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 12);  // pages 0..7 -> a, 8..9 -> b, 10..11 -> c
  sim::Process& proc = sys.process(pid);
  const auto tier_of_page = [&](std::uint64_t idx) {
    const auto ref = proc.page_table().resolve(
        proc.vaddr_of(idx * mem::kPageSize));
    return sys.phys().tier_of(ref.pte->pfn());
  };
  ASSERT_EQ(tier_of_page(7), 0);
  ASSERT_EQ(tier_of_page(8), 1);
  ASSERT_EQ(tier_of_page(10), 2);

  const util::SimNs cost = 1000;
  MoverConfig mcfg;
  mcfg.per_page_cost_ns = cost;
  PageMover mover(sys, mcfg);

  // Rank page 10 (bottom tier) hottest, then the eight tier-a residents,
  // then page 8. Targets with capacities {8, 2}: tier a = {10, 0..6},
  // tier b = {7, 8}. Expected moves: demote the unranked 9 b->c (1 hop,
  // makes room for 7), demote the coldest a resident 7 a->b (1 hop),
  // promote 10 c->a (2 hops).
  std::vector<core::PageRank> ranking;
  std::uint64_t rank = 1000;
  for (const std::uint64_t idx : {10U, 0U, 1U, 2U, 3U, 4U, 5U, 6U, 7U, 8U}) {
    core::PageRank pr;
    pr.key = PageKey{pid, proc.vaddr_of(idx * mem::kPageSize)};
    pr.rank = rank--;
    ranking.push_back(pr);
  }
  const util::SimNs before = sys.now();
  const MoveStats stats = mover.apply(ranking, {8, 2});
  EXPECT_EQ(stats.promoted, 1U);
  EXPECT_EQ(stats.demoted, 2U);
  // 1 + 1 + 2 hops: a flat per-move charge would only account 3 moves.
  EXPECT_EQ(stats.cost_ns, 4 * cost);
  EXPECT_EQ(sys.now() - before, stats.cost_ns);
  EXPECT_EQ(tier_of_page(10), 0);
  EXPECT_EQ(tier_of_page(7), 1);
  EXPECT_EQ(tier_of_page(9), 2);
}

}  // namespace
}  // namespace tmprof::tiering
