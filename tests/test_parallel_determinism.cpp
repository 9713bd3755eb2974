/// Seed-stability regression tests for the sharded access engine: for a
/// fixed seed, RunnerResult must be *bitwise* identical whether the shards
/// run inline (n_threads = 1) or on 2 or 8 worker threads, for every policy
/// and fusion mode. The engine guarantees this by construction (shard count
/// is the simulated-core count; thread count only changes who executes a
/// shard), so any mismatch is a cross-shard data leak.

#include "tiering/runner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "tiering/policies.hpp"
#include "workloads/registry.hpp"

namespace tmprof::tiering {
namespace {

sim::SimConfig parallel_config() {
  sim::SimConfig cfg;
  cfg.cores = 4;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 10;   // small fast tier: placement matters
  cfg.tier2_frames = 1 << 16;
  return cfg;
}

RunnerOptions parallel_options(const std::string& policy,
                               core::FusionMode fusion,
                               std::uint32_t n_threads) {
  RunnerOptions opt;
  opt.policy = policy;
  opt.fusion = fusion;
  opt.n_epochs = 3;
  opt.ops_per_epoch = 30000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
  opt.n_threads = n_threads;
  return opt;
}

void expect_identical(const RunnerResult& a, const RunnerResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.runtime_ns, b.runtime_ns) << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.tier1_hitrate),
            std::bit_cast<std::uint64_t>(b.tier1_hitrate))
      << label << " hitrate " << a.tier1_hitrate << " vs " << b.tier1_hitrate;
  EXPECT_EQ(a.migrations, b.migrations) << label;
  EXPECT_EQ(a.protection_faults, b.protection_faults) << label;
}

TEST(ParallelDeterminism, EveryPolicyAndFusionIsThreadCountInvariant) {
  const auto spec = workloads::find_spec("data_caching", 0.1);
  const sim::SimConfig cfg = parallel_config();
  const std::vector<core::FusionMode> fusions{
      core::FusionMode::Sum, core::FusionMode::Max,
      core::FusionMode::Weighted, core::FusionMode::AbitOnly,
      core::FusionMode::TraceOnly};
  for (const std::string_view name : policy_names()) {
    const std::string policy(name);
    for (const core::FusionMode fusion : fusions) {
      const std::string label =
          policy + "/" + std::string(core::to_string(fusion));
      const RunnerResult t1 =
          EndToEndRunner::run(spec, cfg, parallel_options(policy, fusion, 1));
      const RunnerResult t2 =
          EndToEndRunner::run(spec, cfg, parallel_options(policy, fusion, 2));
      const RunnerResult t8 =
          EndToEndRunner::run(spec, cfg, parallel_options(policy, fusion, 8));
      expect_identical(t1, t2, label + " [1 vs 2 threads]");
      expect_identical(t1, t8, label + " [1 vs 8 threads]");
    }
  }
}

TEST(ParallelDeterminism, RepeatedEightThreadRunsAreIdentical) {
  const auto spec = workloads::find_spec("web_serving", 0.1);
  const sim::SimConfig cfg = parallel_config();
  const RunnerOptions opt =
      parallel_options("history", core::FusionMode::Sum, 8);
  const RunnerResult first = EndToEndRunner::run(spec, cfg, opt);
  for (int i = 0; i < 3; ++i) {
    const RunnerResult repeat = EndToEndRunner::run(spec, cfg, opt);
    expect_identical(first, repeat, "repeat " + std::to_string(i));
  }
}

TEST(ParallelDeterminism, BadgerTrapEmulationIsThreadCountInvariant) {
  // The emulation framework takes protection faults *inside* shard
  // execution (BadgerTrap's per-page counters are shard-disjoint, the
  // global tallies commutative atomics) — fault counts and the injected
  // latency must still be thread-count invariant.
  const auto spec = workloads::find_spec("data_caching", 0.1);
  sim::SimConfig cfg = parallel_config();
  cfg.tier1_frames = 1 << 9;       // force spill so poisoned slow pages exist
  cfg.instruction_fetch = true;    // cover the code-page fault path too
  RunnerOptions base = parallel_options("history", core::FusionMode::Sum, 1);
  base.slow_model = SlowMemoryModel::BadgerTrapEmulation;
  const RunnerResult t1 = EndToEndRunner::run(spec, cfg, base);
  base.n_threads = 2;
  const RunnerResult t2 = EndToEndRunner::run(spec, cfg, base);
  base.n_threads = 8;
  const RunnerResult t8 = EndToEndRunner::run(spec, cfg, base);
  EXPECT_GT(t1.protection_faults, 0U);
  expect_identical(t1, t2, "badgertrap [1 vs 2 threads]");
  expect_identical(t1, t8, "badgertrap [1 vs 8 threads]");
}

TEST(ParallelDeterminism, InlineShardsMatchNullPool) {
  // n_threads = 1 constructs no pool at all; the engine must not care.
  const auto spec = workloads::find_spec("gups", 0.05);
  const sim::SimConfig cfg = parallel_config();
  const RunnerResult inline_run = EndToEndRunner::run(
      spec, cfg, parallel_options("history", core::FusionMode::Sum, 1));
  const RunnerResult pooled_run = EndToEndRunner::run(
      spec, cfg, parallel_options("history", core::FusionMode::Sum, 2));
  expect_identical(inline_run, pooled_run, "inline vs pooled");
}

}  // namespace
}  // namespace tmprof::tiering
