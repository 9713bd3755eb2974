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
  cfg.ring_capacity = 100;
  cfg.interrupt_fill_fraction = 0.5;
  LwpMonitor lwp(cfg);
  lwp.enable_process(1);
  std::size_t largest_batch = 0;
  lwp.set_drain([&](mem::Pid, std::span<const TraceSample> samples) {
    largest_batch = std::max(largest_batch, samples.size());
  });
  for (int i = 0; i < 500; ++i) lwp.on_mem_op(make_op(1, 0x1000));
  EXPECT_GT(lwp.signals(), 0U);
  EXPECT_EQ(largest_batch, 50U);  // drained exactly at the threshold
  EXPECT_EQ(lwp.records_dropped(), 0U);
}

TEST(Lwp, FullRingDropsRecords) {
  LwpConfig cfg;
  cfg.sample_period = 1;
  cfg.ring_capacity = 16;
  cfg.interrupt_fill_fraction = 1.0;  // never signals early
  LwpMonitor lwp(cfg);
  lwp.enable_process(1);
  lwp.set_drain(nullptr);
  // No drain installed: after 16 records the ring is full...
  for (int i = 0; i < 100; ++i) lwp.on_mem_op(make_op(1, 0x1000));
  // ...but at threshold 1.0 the signal fires exactly at capacity and the
  // internal drain empties the ring even without a callback.
  EXPECT_EQ(lwp.records_dropped(), 0U);
  EXPECT_GT(lwp.signals(), 0U);
}

TEST(Lwp, OverheadScalesWithDrains) {
  LwpConfig cfg;
  cfg.sample_period = 1;
  cfg.ring_capacity = 8;
  cfg.interrupt_fill_fraction = 0.5;
  LwpMonitor lwp(cfg);
  lwp.enable_process(1);
  for (int i = 0; i < 64; ++i) lwp.on_mem_op(make_op(1, 0x1000));
  const util::SimNs expected = lwp.signals() * cfg.cost_per_signal_ns +
                               lwp.records_taken() *
                                   cfg.cost_per_drained_record_ns;
  EXPECT_EQ(lwp.overhead_ns(), expected);
}

}  // namespace
}  // namespace tmprof::monitors
