#include "core/numa_maps.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "workloads/gups.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::core {
namespace {

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 8;
  cfg.tier2_frames = 1 << 14;
  return cfg;
}

TEST(NumaMaps, CoalescesContiguousMappings) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(1 << 14, 4096, 0.0, 1));
  sys.step(4);  // 4 contiguous pages
  const std::string text = numa_maps(sys, pid, EpochObservation{});
  // One contiguous run => exactly one line.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  EXPECT_NE(text.find("pages=4"), std::string::npos);
  EXPECT_NE(text.find("tier0=4"), std::string::npos);
}

TEST(NumaMaps, ReportsTierSplit) {
  sim::System sys(small_config());  // tier0 holds only 8 frames
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(1 << 16, 4096, 0.0, 1));
  sys.step(16);  // 8 land in tier0, 8 spill
  const std::string text = numa_maps(sys, pid, EpochObservation{});
  EXPECT_NE(text.find("tier0=8"), std::string::npos);
  EXPECT_NE(text.find("tier1=8"), std::string::npos);
}

TEST(NumaMaps, ShowsProfilingCounts) {
  // A footprint beyond the caches, so trace samples come from memory; every
  // page is touched, so the mapping is one line carrying the epoch's totals.
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  DriverConfig cfg;
  cfg.ibs = monitors::IbsConfig::with_period(64);
  TmpDriver driver(sys, cfg);
  sys.step(20000);
  driver.scan_processes({pid});
  const EpochObservation observed = driver.end_epoch();
  std::uint64_t abit = 0;
  std::uint64_t trace = 0;
  for (const auto& [key, count] : observed.abit) abit += count;
  for (const auto& [key, count] : observed.trace) trace += count;
  ASSERT_GT(abit, 0U);
  ASSERT_GT(trace, 0U);
  const std::string text = numa_maps(sys, pid, observed);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1) << text;
  EXPECT_NE(text.find(" abit=" + std::to_string(abit) +
                      " trace=" + std::to_string(trace) + "\n"),
            std::string::npos)
      << text;
}

TEST(NumaMaps, MarksHugeMappings) {
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 1 << 12;
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::GupsWorkload>(4 << 20, 1));
  sys.step(100);
  const std::string text = numa_maps(sys, pid, EpochObservation{});
  EXPECT_NE(text.find(" huge"), std::string::npos);
}

TEST(NumaMaps, HugeMappingCountsKeyedByFirstPage) {
  // A 2 MiB mapping's samples aggregate on its first page address; a key
  // inside its span names no mapping and is not shown.
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 1 << 12;
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::GupsWorkload>(4 << 20, 1));
  sys.step(100);
  mem::VirtAddr huge_va = 0;
  std::uint64_t huge_pages = 0;
  sys.process(pid).page_table().walk(
      [&](mem::VirtAddr va, mem::PageSize size, mem::Pte&) {
        if (size != mem::PageSize::k2M) return;
        if (huge_pages++ == 0) huge_va = va;
      });
  ASSERT_GT(huge_pages, 0U);
  EpochObservation observed;
  observed.trace[PageKey{pid, huge_va}] = 7;
  observed.trace[PageKey{pid, huge_va + mem::kPageSize}] = 100;
  observed.abit[PageKey{pid, huge_va}] = 2;
  const std::string text = numa_maps(sys, pid, observed);
  EXPECT_NE(text.find(" abit=2 trace=7 huge\n"), std::string::npos) << text;
}

}  // namespace
}  // namespace tmprof::core
