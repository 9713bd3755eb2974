#include "core/thermostat.hpp"

#include <gtest/gtest.h>

#include "workloads/synthetic.hpp"

namespace tmprof::core {
namespace {

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 14;
  cfg.tier2_frames = 1 << 14;
  return cfg;
}

TEST(Thermostat, SamplesRequestedFraction) {
  sim::System sys(small_config());
  sys.add_process(std::make_unique<workloads::SequentialWorkload>(
      4 << 20, 4096, 0.0, 1));
  sys.step(1024);  // map all 1024 pages
  ThermostatConfig cfg;
  cfg.sample_fraction = 0.1;
  ThermostatClassifier thermostat(sys, cfg);
  const std::uint64_t sampled = thermostat.begin_interval();
  EXPECT_NEAR(static_cast<double>(sampled), 102.4, 40.0);
  (void)thermostat.end_interval();
}

TEST(Thermostat, HotPagesExceedThreshold) {
  sim::System sys(small_config());
  // Hot/cold: a tiny hot set absorbs most accesses.
  sys.add_process(std::make_unique<workloads::HotColdWorkload>(
      4 << 20, 4096, 0.01, 0.95, 0.0, 1));
  sys.step(30000);
  ThermostatConfig cfg;
  cfg.sample_fraction = 1.0;  // classify everything for the test
  ThermostatClassifier thermostat(sys, cfg);
  thermostat.begin_interval();
  // Poll-and-re-arm several times so hot pages can accumulate faults.
  for (int poll = 0; poll < 6; ++poll) {
    sys.step(10000);
    thermostat.refresh();
  }
  const EpochObservation obs = thermostat.end_interval();
  EXPECT_FALSE(obs.abit.empty());
  ASSERT_FALSE(thermostat.hot_pages().empty());
  // The hot classification must be a small minority of sampled pages
  // (the hot set is ~1% of the footprint).
  EXPECT_LT(thermostat.hot_pages().size(), obs.abit.size());
}

TEST(Thermostat, IntervalsAreIndependent) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  sim::Process& proc = sys.process(pid);
  sys.access(proc, proc.vaddr_of(0), false, 1);
  ThermostatConfig cfg;
  cfg.sample_fraction = 1.0;
  ThermostatClassifier thermostat(sys, cfg);
  thermostat.begin_interval();
  sys.access(proc, proc.vaddr_of(0), false, 1);
  const EpochObservation first = thermostat.end_interval();
  EXPECT_FALSE(first.abit.empty());
  // A fresh interval with no traffic observes nothing.
  thermostat.begin_interval();
  const EpochObservation second = thermostat.end_interval();
  EXPECT_TRUE(second.abit.empty());
}

TEST(Thermostat, EndIntervalDisarmsAllSamples) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 18, 0.0, 1));
  sim::Process& proc = sys.process(pid);
  sys.step(5000);
  ThermostatConfig cfg;
  cfg.sample_fraction = 1.0;
  ThermostatClassifier thermostat(sys, cfg);
  thermostat.begin_interval();
  (void)thermostat.end_interval();
  // Any access after the interval must run unfaulted.
  const sim::AccessResult r = sys.access(proc, proc.vaddr_of(64), false, 1);
  EXPECT_FALSE(r.protection_fault);
}

TEST(Thermostat, DoubleBeginRejected) {
  sim::System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  sys.step(10);
  ThermostatClassifier thermostat(sys, ThermostatConfig{});
  thermostat.begin_interval();
  EXPECT_THROW(thermostat.begin_interval(), util::AssertionError);
}

}  // namespace
}  // namespace tmprof::core
