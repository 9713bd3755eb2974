/// Tests for the THP collapse daemon and the swap-style far-memory
/// baseline.

#include <gtest/gtest.h>

#include "tiering/khugepaged.hpp"
#include "tiering/swap.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::tiering {
namespace {

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 12;
  cfg.tier2_frames = 1 << 13;
  return cfg;
}

TEST(Khugepaged, CollapsesFullyPopulatedHotRange) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(4 << 20, 4096, 0.0, 1));
  // Touch an entire 2 MiB-aligned range of 4 KiB pages (heap base is
  // 2 MiB-aligned), setting A bits along the way.
  sys.step(512);
  Khugepaged daemon(sys, KhugepagedConfig{});
  const CollapseStats stats = daemon.scan_and_collapse();
  EXPECT_EQ(stats.collapsed, 1U);
  sim::Process& proc = sys.process(pid);
  const mem::PteRef ref = proc.page_table().resolve(proc.vaddr_of(0));
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.size, mem::PageSize::k2M);
  // Subsequent accesses translate through the huge mapping.
  const sim::AccessResult r = sys.access(proc, proc.vaddr_of(12345), false, 1);
  EXPECT_FALSE(r.page_fault);
}

TEST(Khugepaged, SkipsSparseRanges) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(4 << 20, 4096, 0.0, 1));
  sys.step(100);  // only 100 of 512 slots populated
  Khugepaged daemon(sys, KhugepagedConfig{});
  const CollapseStats stats = daemon.scan_and_collapse();
  EXPECT_EQ(stats.collapsed, 0U);
  EXPECT_GT(stats.skipped_sparse, 0U);
  sim::Process& proc = sys.process(pid);
  EXPECT_EQ(proc.page_table().resolve(proc.vaddr_of(0)).size,
            mem::PageSize::k4K);
}

TEST(Khugepaged, HotnessGateSkipsColdRanges) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(4 << 20, 4096, 0.0, 1));
  sys.step(512);
  // Clear every A bit: the range is fully mapped but evidently cold.
  sim::Process& proc = sys.process(pid);
  proc.page_table().walk([](mem::VirtAddr, mem::PageSize, mem::Pte& pte) {
    pte.set_accessed(false);
  });
  KhugepagedConfig cfg;
  cfg.min_accessed = 0.5;
  Khugepaged daemon(sys, cfg);
  const CollapseStats stats = daemon.scan_and_collapse();
  EXPECT_EQ(stats.collapsed, 0U);
  EXPECT_GT(stats.skipped_cold, 0U);
  // With the gate disabled the same range collapses.
  KhugepagedConfig open;
  open.min_accessed = 0.0;
  Khugepaged eager(sys, open);
  EXPECT_EQ(eager.scan_and_collapse().collapsed, 1U);
}

TEST(Khugepaged, CollapseShrinksAbitVisibility) {
  // The Table IV mechanism in miniature: after collapse, a page-table walk
  // sees 1 entry where it saw 512.
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(4 << 20, 4096, 0.0, 1));
  sys.step(512);
  sim::Process& proc = sys.process(pid);
  auto count_leaves = [&] {
    std::uint64_t n = 0;
    proc.page_table().walk(
        [&](mem::VirtAddr va, mem::PageSize, mem::Pte&) {
          n += va >= proc.heap_base() ? 1U : 0U;  // ignore code pages
        });
    return n;
  };
  EXPECT_EQ(count_leaves(), 512U);
  Khugepaged daemon(sys, KhugepagedConfig{});
  daemon.scan_and_collapse();
  EXPECT_EQ(count_leaves(), 1U);
}

TEST(Swap, FaultsBringPagesInAndEvictFifo) {
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 8;
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(1 << 16, 4096, 0.0, 1));
  sys.step(16);  // 8 pages resident in t1, 8 spilled
  SwapFarMemory swap(sys);
  swap.seal();
  sim::Process& proc = sys.process(pid);
  // Touch a swapped-out page: major fault, swap-in, FIFO eviction.
  const mem::VirtAddr target = proc.vaddr_of(12 * mem::kPageSize);
  const sim::AccessResult r = sys.access(proc, target, false, 1);
  EXPECT_TRUE(r.protection_fault);
  EXPECT_EQ(swap.major_faults(), 1U);
  EXPECT_EQ(swap.pages_swapped_in(), 1U);
  const mem::PteRef ref = proc.page_table().resolve(target);
  EXPECT_EQ(sys.phys().tier_of(ref.pte->pfn()), 0);
  EXPECT_FALSE(ref.pte->poisoned());
  // A second touch of the now-resident page is fault-free.
  const sim::AccessResult again = sys.access(proc, target, false, 1);
  EXPECT_FALSE(again.protection_fault);
}

TEST(Swap, ThrashingCostsScaleWithFaults) {
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 4;
  sim::System sys(cfg);
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  sys.step(256);  // map the footprint (4 t1 + rest t2)
  SwapFarMemory swap(sys);
  swap.seal();
  const util::SimNs before = sys.now();
  sys.step(2000);  // uniform random over 256 pages with 4-page residency
  EXPECT_GT(swap.major_faults(), 500U);  // thrashing
  // Each fault charged at least the major-fault cost.
  EXPECT_GE(sys.now() - before, swap.major_faults() * 8000ULL);
}

TEST(Swap, DetachRestoresNormalFaults) {
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 8;
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(1 << 16, 4096, 0.0, 1));
  sys.step(16);
  {
    SwapFarMemory swap(sys);
    swap.seal();
    // Drain the poison by touching every page once (FIFO churns, but each
    // fault unpoisons its page).
    sim::Process& proc = sys.process(pid);
    for (std::uint64_t i = 0; i < 16; ++i) {
      sys.access(proc, proc.vaddr_of(i * mem::kPageSize), false, 1);
    }
  }
  // After detach, leftover poisoned pages would crash on access; verify
  // the sealed set was fully consumed for the touched range.
  sim::Process& proc = sys.process(pid);
  std::uint64_t poisoned = 0;
  proc.page_table().walk([&](mem::VirtAddr, mem::PageSize, mem::Pte& pte) {
    poisoned += pte.poisoned() ? 1U : 0U;
  });
  // Pages evicted by the FIFO during the sweep may be re-poisoned; they
  // are the only ones allowed to remain.
  EXPECT_LE(poisoned, 16U);
}

}  // namespace
}  // namespace tmprof::tiering
