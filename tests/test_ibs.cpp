#include "monitors/ibs.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tmprof::monitors {
namespace {

MemOpEvent make_op(std::uint32_t core, mem::VirtAddr vaddr,
                   mem::DataSource src = mem::DataSource::MemTier1) {
  MemOpEvent ev;
  ev.core = core;
  ev.pid = 1;
  ev.vaddr = vaddr;
  ev.paddr = vaddr;  // identity-ish for tests
  ev.source = src;
  return ev;
}

TEST(Ibs, SampleRateApproximatesPeriod) {
  IbsConfig cfg = IbsConfig::with_period(1024);
  IbsMonitor ibs(cfg, 1);
  const std::uint64_t ops = 200000;
  const std::uint64_t uops = 4;
  for (std::uint64_t i = 0; i < ops; ++i) {
    ibs.on_retire(0, uops, 0);
    ibs.on_mem_op(make_op(0, i * 64));
  }
  // Expected samples = total_uops / period * P(tag lands on the mem uop)
  //                  = ops*4/1024 * (1/4) = ops/1024.
  const double expected = static_cast<double>(ops) / 1024.0;
  EXPECT_NEAR(static_cast<double>(ibs.samples_taken()), expected,
              expected * 0.25);
  // Lost tags account for tags landing on non-memory uops.
  EXPECT_GT(ibs.tags_lost(), 0U);
}

TEST(Ibs, HigherRateMoreSamples) {
  std::uint64_t counts[2];
  int idx = 0;
  for (std::uint64_t period : {4096ULL, 1024ULL}) {
    IbsMonitor ibs(IbsConfig::with_period(period), 1);
    for (std::uint64_t i = 0; i < 100000; ++i) {
      ibs.on_retire(0, 4, 0);
      ibs.on_mem_op(make_op(0, i * 64));
    }
    counts[idx++] = ibs.samples_taken();
  }
  EXPECT_GT(counts[1], counts[0] * 2);
}

TEST(Ibs, RecordsCarrySampleFields) {
  IbsConfig cfg = IbsConfig::with_period(16);
  IbsMonitor ibs(cfg, 1);
  std::vector<TraceSample> got;
  ibs.set_drain([&](std::span<const TraceSample> s) {
    got.insert(got.end(), s.begin(), s.end());
  });
  for (std::uint64_t i = 0; i < 2000; ++i) {
    ibs.on_retire(0, 1, i);  // 1 uop per op => every tag is a mem op
    MemOpEvent ev = make_op(0, 0xabc000 + i);
    ev.time = i;
    ev.is_store = (i % 2) == 0;
    ev.tlb = mem::TlbHit::Miss;
    ibs.on_mem_op(ev);
  }
  ibs.drain();
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.size(), ibs.samples_taken());
  for (const TraceSample& s : got) {
    EXPECT_EQ(s.pid, 1U);
    EXPECT_GE(s.vaddr, 0xabc000U);
    EXPECT_TRUE(s.tlb_miss);
  }
}

TEST(Ibs, BufferFullTriggersInterruptDrain) {
  IbsConfig cfg = IbsConfig::with_period(16);
  cfg.buffer_capacity = 8;
  IbsMonitor ibs(cfg, 1);
  int drains = 0;
  ibs.set_drain([&](std::span<const TraceSample> s) {
    EXPECT_EQ(s.size(), 8U);
    ++drains;
  });
  for (std::uint64_t i = 0; i < 16 * 20; ++i) {
    ibs.on_retire(0, 1, 0);
    ibs.on_mem_op(make_op(0, i));
  }
  EXPECT_GE(drains, 2);
  EXPECT_EQ(ibs.interrupts(), static_cast<std::uint64_t>(drains));
}

TEST(Ibs, PerCoreCountdownsAreIndependent) {
  IbsConfig cfg = IbsConfig::with_period(64);
  IbsMonitor ibs(cfg, 2);
  // Only core 0 retires ops; core 1 must never produce samples.
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ibs.on_retire(0, 1, 0);
    ibs.on_mem_op(make_op(0, i));
  }
  const std::uint64_t after_core0 = ibs.samples_taken();
  EXPECT_GT(after_core0, 0U);
  ibs.on_mem_op(make_op(1, 0x1));  // no tag armed on core 1
  EXPECT_EQ(ibs.samples_taken(), after_core0);
}

TEST(Ibs, OverheadGrowsWithSamples) {
  IbsConfig cfg = IbsConfig::with_period(16);
  IbsMonitor ibs(cfg, 1);
  EXPECT_EQ(ibs.overhead_ns(), 0U);
  for (std::uint64_t i = 0; i < 1600; ++i) {
    ibs.on_retire(0, 1, 0);
    ibs.on_mem_op(make_op(0, i));
  }
  EXPECT_GE(ibs.overhead_ns(), ibs.samples_taken() * cfg.cost_per_record_ns);
}

}  // namespace
}  // namespace tmprof::monitors
