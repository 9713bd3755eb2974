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
  PageStatsStore store(sys.phys().total_frames());
  const std::string text = numa_maps(sys, pid, store);
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
  PageStatsStore store(sys.phys().total_frames());
  const std::string text = numa_maps(sys, pid, store);
  EXPECT_NE(text.find("tier0=8"), std::string::npos);
  EXPECT_NE(text.find("tier1=8"), std::string::npos);
}

TEST(NumaMaps, ShowsProfilingCounts) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 14, 0.0, 1));
  DriverConfig cfg;
  cfg.ibs = monitors::IbsConfig::with_period(64);
  cfg.trace_memory_only = false;  // tiny footprint: count cache hits too
  TmpDriver driver(sys, cfg);
  sys.step(20000);
  driver.scan_processes({pid});
  driver.end_epoch();
  const std::string text = numa_maps(sys, pid, driver.store());
  EXPECT_EQ(text.find("abit=0 "), std::string::npos);
  EXPECT_EQ(text.find("trace=0\n"), std::string::npos);
}

TEST(NumaMaps, MarksHugeMappings) {
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 1 << 12;
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::GupsWorkload>(4 << 20, 1));
  sys.step(100);
  PageStatsStore store(sys.phys().total_frames());
  const std::string text = numa_maps(sys, pid, store);
  EXPECT_NE(text.find(" huge"), std::string::npos);
}

}  // namespace
}  // namespace tmprof::core
