#include "core/driver.hpp"

#include <gtest/gtest.h>

#include "tiering/profile.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::core {
namespace {

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;  // small LLC so accesses reach memory
  cfg.tier1_frames = 8192;
  cfg.tier2_frames = 8192;
  return cfg;
}

DriverConfig fast_driver() {
  DriverConfig cfg;
  cfg.ibs = monitors::IbsConfig::with_period(256);
  return cfg;
}

TEST(Driver, CollectsTraceSamplesIntoEpoch) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(8 << 20, 0.0, 1));
  TmpDriver driver(sys, fast_driver());
  sys.step(100000);
  const EpochObservation obs = driver.end_epoch();
  EXPECT_FALSE(obs.trace.empty());
  for (const auto& [key, count] : obs.trace) {
    EXPECT_EQ(key.pid, pid);
    EXPECT_GT(count, 0U);
  }
  EXPECT_GT(driver.trace_samples_kept(), 0U);
}

TEST(Driver, AbitScanPopulatesObservation) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(8 << 20, 0.0, 1));
  TmpDriver driver(sys, fast_driver());
  sys.step(20000);
  const auto scan = driver.scan_processes({pid});
  EXPECT_GT(scan.pages_accessed, 0U);
  EXPECT_GE(scan.ptes_visited, scan.pages_accessed);
  const EpochObservation obs = driver.end_epoch();
  EXPECT_EQ(obs.abit.size(), scan.pages_accessed);
}

/// A driver's kept trace samples next to what a twin IBS monitor (same
/// config and default seed, so it samples the same ops) saw.
struct FilterRun {
  std::uint64_t kept = 0;          ///< the driver's trace_samples_kept()
  std::uint64_t memory_loads = 0;  ///< twin samples: loads served by memory
  std::uint64_t stores = 0;        ///< twin samples: stores
  std::uint64_t cache_hits = 0;    ///< twin samples: loads served by a cache
  std::uint64_t pass_kept = 0;     ///< samples tiering::profile_pass kept
};

FilterRun run_filter(std::uint64_t footprint, double store_fraction) {
  sim::System sys(small_config());
  sys.add_process(std::make_unique<workloads::UniformWorkload>(
      footprint, store_fraction, 1));
  const DriverConfig cfg = fast_driver();
  TmpDriver driver(sys, cfg);
  monitors::IbsMonitor twin(cfg.ibs, sys.config().cores);
  FilterRun run;
  twin.set_drain([&run](std::span<const monitors::TraceSample> samples) {
    for (const monitors::TraceSample& s : samples) {
      if (s.is_store) ++run.stores;
      else if (mem::is_memory(s.source)) ++run.memory_loads;
      else ++run.cache_hits;
    }
  });
  sys.add_observer(&twin);
  // The Section V figures' pass steps the run, its own monitor at the
  // driver's IBS config and seed (IbsMonitor's default).
  tiering::profile_pass(
      sys, std::span(&cfg.ibs, 1), 0x1b5, 1, 100000,
      [&run](auto&&...) { ++run.pass_kept; }, [](auto&&...) {});
  driver.end_epoch();
  twin.drain();
  sys.remove_observer(&twin);
  run.kept = driver.trace_samples_kept();
  return run;
}

TEST(Driver, LoadsOnlyFilterDropsStores) {
  // Every op is a store: the monitor samples them, the driver counts none.
  const FilterRun run = run_filter(8 << 20, 1.0);
  EXPECT_GT(run.stores, 0U);
  EXPECT_EQ(run.memory_loads + run.cache_hits, 0U);
  EXPECT_EQ(run.kept, 0U);
}

TEST(Driver, MemoryOnlyFilterDropsCacheHits) {
  // Tiny footprint: after warmup everything hits in cache, so nearly every
  // sample is a cache hit, and none of those count.
  const FilterRun tiny = run_filter(1 << 14, 0.0);
  EXPECT_GT(tiny.cache_hits, 10 * tiny.memory_loads);
  EXPECT_EQ(tiny.kept, tiny.memory_loads);
  // Beyond-LLC footprint: the loads served by memory are exactly what the
  // driver keeps.
  const FilterRun large = run_filter(8 << 20, 0.0);
  EXPECT_GT(large.memory_loads, 0U);
  EXPECT_GT(large.cache_hits, 0U);
  EXPECT_EQ(large.kept, large.memory_loads);
}

// The figures measure the profiler the policies rank: on a workload that
// frees no page, the pass keeps exactly the samples the driver counts.
TEST(ProfilePass, KeepsTheSamplesTheDriverCounts) {
  const FilterRun run = run_filter(8 << 20, 0.3);
  EXPECT_GT(run.kept, 0U);
  EXPECT_EQ(run.pass_kept, run.kept);
}

TEST(Driver, TraceDisableStopsCollection) {
  sim::System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(8 << 20, 0.0, 1));
  TmpDriver driver(sys, fast_driver());
  driver.set_trace_enabled(false);
  sys.step(50000);
  driver.end_epoch();
  EXPECT_EQ(driver.trace_samples_kept(), 0U);
  driver.set_trace_enabled(true);
  sys.step(50000);
  driver.end_epoch();
  EXPECT_GT(driver.trace_samples_kept(), 0U);
}

TEST(Driver, EpochsSeparateObservations) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(8 << 20, 0.0, 1));
  TmpDriver driver(sys, fast_driver());
  sys.step(30000);
  driver.scan_processes({pid});
  const EpochObservation first = driver.end_epoch();
  EXPECT_EQ(first.epoch, 0U);
  const EpochObservation empty = driver.end_epoch();
  EXPECT_EQ(empty.epoch, 1U);
  EXPECT_TRUE(empty.trace.empty());
  EXPECT_TRUE(empty.abit.empty());
  EXPECT_EQ(driver.epoch(), 2U);
}

TEST(Driver, PebsBackendWorks) {
  sim::System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(8 << 20, 0.0, 1));
  DriverConfig cfg;
  cfg.backend = TraceBackend::Pebs;
  cfg.pebs.sample_after = 64;
  TmpDriver driver(sys, cfg);
  sys.step(100000);
  driver.end_epoch();
  EXPECT_GT(driver.trace_samples_kept(), 0U);
  EXPECT_GT(driver.trace_overhead_ns(), 0U);
}

TEST(Driver, OverheadAccumulates) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(8 << 20, 0.0, 1));
  TmpDriver driver(sys, fast_driver());
  sys.step(50000);
  driver.scan_processes({pid});
  EXPECT_GT(driver.overhead_ns(), 0U);
  EXPECT_EQ(driver.overhead_ns(),
            driver.trace_overhead_ns() + driver.abit_overhead_ns());
}

}  // namespace
}  // namespace tmprof::core
