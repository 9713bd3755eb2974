/// Second integration batch: interactions across the newer subsystems
/// (mover ↔ numa_maps, 3-tier systems, swap ↔ profiler coexistence
/// rules).

#include <gtest/gtest.h>

#include "core/numa_maps.hpp"
#include "tiering/mover.hpp"
#include "tiering/swap.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof {
namespace {

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 12;
  cfg.tier2_frames = 1 << 13;
  return cfg;
}

/// numa_maps reflects the mover's placement: after demoting everything,
/// tier0 counts drop to zero.
TEST(Integration2, NumaMapsTracksMigration) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(1 << 16, 4096, 0.0, 1));
  sys.step(16);
  const core::EpochObservation observed;
  EXPECT_NE(core::numa_maps(sys, pid, observed).find("tier0="),
            std::string::npos);
  // Demote every heap page to tier 1 (slow).
  sim::Process& proc = sys.process(pid);
  std::vector<mem::VirtAddr> pages;
  proc.page_table().walk(
      [&](mem::VirtAddr va, mem::PageSize, mem::Pte&) {
        if (va >= proc.heap_base()) pages.push_back(va);
      });
  for (const mem::VirtAddr va : pages) {
    ASSERT_TRUE(sys.migrate_page(pid, va, 1));
  }
  const std::string text = core::numa_maps(sys, pid, observed);
  // Heap lines report zero tier-0 pages now.
  std::size_t pos = text.find("0x5500000000");
  ASSERT_NE(pos, std::string::npos);
  const std::string heap_line = text.substr(pos, text.find('\n', pos) - pos);
  EXPECT_NE(heap_line.find("tier0=0"), std::string::npos);
}

/// A 3-tier system allocates first-touch through the whole ladder.
TEST(Integration2, ThreeTierFirstTouchSpillsDownTheLadder) {
  sim::SimConfig cfg = small_config();
  cfg.tiers = {mem::TierSpec{"tier1-dram", 4, 80, 80, 0},
               mem::TierSpec{"tier2-nvm", 4, 300, 600, 0},
               mem::TierSpec{"tier3-cold", 1 << 12, 900, 1800, 0}};
  sim::System sys(cfg);
  sys.add_process(std::make_unique<workloads::SequentialWorkload>(
      1 << 16, 4096, 0.0, 1));
  sys.step(16);
  EXPECT_EQ(sys.phys().used_frames(0), 4U);
  EXPECT_EQ(sys.phys().used_frames(1), 4U);
  EXPECT_GT(sys.phys().used_frames(2), 0U);
}

/// Swap and mover compose: a page swapped out and then touched comes back
/// to tier 0 and is immediately migratable again.
TEST(Integration2, SwapInThenMigrate) {
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 8;
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(1 << 16, 4096, 0.0, 1));
  sys.step(16);
  sim::Process& proc = sys.process(pid);
  const mem::VirtAddr target = proc.vaddr_of(12 * mem::kPageSize);
  {
    tiering::SwapFarMemory swap(sys);
    swap.seal();
    sys.access(proc, target, false, 1);
    EXPECT_EQ(swap.pages_swapped_in(), 1U);
  }
  const mem::PteRef ref = proc.page_table().resolve(target);
  ASSERT_TRUE(ref);
  EXPECT_EQ(sys.phys().tier_of(ref.pte->pfn()), 0);
  EXPECT_TRUE(sys.migrate_page(pid, mem::page_base(target, ref.size), 1));
}

}  // namespace
}  // namespace tmprof
