#include "monitors/lwp.hpp"

#include <gtest/gtest.h>

namespace tmprof::monitors {
namespace {

MemOpEvent make_op(mem::Pid pid, mem::VirtAddr vaddr) {
  MemOpEvent ev;
  ev.pid = pid;
  ev.vaddr = vaddr;
  ev.paddr = vaddr;
  ev.source = mem::DataSource::MemTier1;
  return ev;
}

TEST(Lwp, OnlyEnabledProcessesAreRecorded) {
  LwpConfig cfg;
  cfg.sample_period = 4;
  LwpMonitor lwp(cfg);
  lwp.enable_process(1);
  for (int i = 0; i < 1000; ++i) {
    lwp.on_mem_op(make_op(1, 0x1000));
    lwp.on_mem_op(make_op(2, 0x2000));  // not enabled
  }
  lwp.drain_all();
  EXPECT_GT(lwp.records_taken(), 0U);
  // Roughly 1000/4 records, all from pid 1.
  EXPECT_NEAR(static_cast<double>(lwp.records_taken()), 250.0, 100.0);
}

TEST(Lwp, RecordsLandInPerProcessRings) {
  LwpConfig cfg;
  cfg.sample_period = 2;
  LwpMonitor lwp(cfg);
  lwp.enable_process(1);
  lwp.enable_process(2);
  std::uint64_t pid1 = 0, pid2 = 0;
  lwp.set_drain([&](mem::Pid pid, std::span<const TraceSample> samples) {
    for (const TraceSample& s : samples) {
      EXPECT_EQ(s.pid, pid);
      (pid == 1 ? pid1 : pid2) += 1;
    }
  });
  for (int i = 0; i < 400; ++i) {
    lwp.on_mem_op(make_op(1, 0x1000));
    lwp.on_mem_op(make_op(2, 0x2000));
  }
  lwp.drain_all();
  EXPECT_GT(pid1, 0U);
  EXPECT_GT(pid2, 0U);
}

TEST(Lwp, ThresholdSignalsBeforeRingFull) {
  LwpConfig cfg;
  cfg.sample_period = 1;
  LwpMonitor lwp(cfg);
  lwp.enable_process(1);
  std::size_t largest_batch = 0;
  std::uint64_t delivered = 0;
  lwp.set_drain([&](mem::Pid, std::span<const TraceSample> samples) {
    largest_batch = std::max(largest_batch, samples.size());
    delivered += samples.size();
  });
  for (int i = 0; i < 20000; ++i) lwp.on_mem_op(make_op(1, 0x1000));
  EXPECT_EQ(lwp.signals(), 3U);
  // Drained exactly at the threshold, 0.75 of the 8192-record ring.
  EXPECT_EQ(largest_batch, 6144U);
  // The ring never fills, so every record taken reaches the process.
  lwp.drain_all();
  EXPECT_EQ(delivered, lwp.records_taken());
  EXPECT_EQ(delivered, 20000U);
}

TEST(Lwp, OverheadScalesWithDrains) {
  LwpConfig cfg;
  cfg.sample_period = 1;
  LwpMonitor lwp(cfg);
  lwp.enable_process(1);
  for (int i = 0; i < 3 * 6144; ++i) lwp.on_mem_op(make_op(1, 0x1000));
  const util::SimNs expected = lwp.signals() * kLwpCostPerSignalNs +
                               lwp.records_taken() * kLwpCostPerDrainedRecordNs;
  EXPECT_EQ(lwp.signals(), 3U);
  EXPECT_EQ(lwp.overhead_ns(), expected);
}

}  // namespace
}  // namespace tmprof::monitors
