#pragma once
/// \file topology_common.hpp
/// N-tier chain replay for bench/topology (docs/TOPOLOGY.md). One function
/// drives a workload over an arbitrary tier ladder with the TMP profiler
/// feeding a waterfall page mover.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/daemon.hpp"
#include "pmu/events.hpp"
#include "tiering/epoch.hpp"
#include "tiering/mover.hpp"
#include "tiering/options.hpp"

namespace tmprof::bench {

struct ChainOptions {
  std::uint32_t epochs = 8;
  std::uint64_t ops_per_epoch = 500'000;
  std::uint64_t seed = 42;
  /// IBS rate multiplier (scaled_ibs); 1 is the paper-default (sparsest)
  /// period, where the always-on device counters add the most information.
  std::uint64_t ibs_rate = 1;
  core::FusionMode fusion = core::FusionMode::Sum;
  monitors::DevMonConfig devmon{};  ///< disabled by default
  double devmon_weight = 1.0;
};

struct ChainRun {
  util::SimNs runtime_ns = 0;
  double dram_hitrate = 0.0;  ///< fills served by tier 0 / all fills
  std::uint64_t migrations = 0;
  std::uint64_t promoted = 0;
  std::uint64_t demoted = 0;
  std::uint64_t devmon_reported = 0;  ///< device top-K entries drained
  std::vector<std::uint64_t> tier_fills;  ///< per tier, fastest first
};

/// Replay `spec` over `tiers` (fastest first): the scaled IBS profiler
/// ticks each epoch and PageMover::apply waterfalls the ranking down the
/// chain (migration cost scales with the hop count), with 64 spare frames
/// per bounded tier so reconciliation can stage exchanges.
inline ChainRun run_chain(const workloads::WorkloadSpec& spec,
                          const std::vector<mem::TierSpec>& tiers,
                          const ChainOptions& opt) {
  sim::SimConfig cfg = testbed_config(spec.total_bytes);
  cfg.tiers = tiers;
  core::DaemonConfig dcfg;
  dcfg.driver.ibs = scaled_ibs(opt.ibs_rate);
  dcfg.driver.devmon = opt.devmon;
  dcfg.fusion = opt.fusion;
  dcfg.devmon_weight = opt.devmon_weight;
  tiering::check_options(cfg, dcfg);

  sim::System system(cfg);
  tiering::add_spec_processes(system, spec, opt.seed);
  core::TmpDaemon daemon(system, dcfg);

  tiering::MoverConfig mcfg;
  mcfg.per_page_cost_ns = 2500;
  mcfg.min_rank = 3;
  tiering::PageMover mover(system, mcfg);

  std::vector<std::uint64_t> capacities;
  for (std::size_t t = 0; t + 1 < tiers.size(); ++t) {
    capacities.push_back(tiers[t].frames - 64);
  }

  ChainRun result;
  for (std::uint32_t e = 0; e < opt.epochs; ++e) {
    system.step(opt.ops_per_epoch);
    const core::ProfileSnapshot snap = daemon.tick();
    const tiering::MoveStats moved = mover.apply(snap.ranking, capacities);
    result.migrations += moved.promoted + moved.demoted;
    result.promoted += moved.promoted;
    result.demoted += moved.demoted;
  }
  const std::uint64_t t1 = system.pmu().truth_total(pmu::Event::MemReadTier1);
  const std::uint64_t t2 = system.pmu().truth_total(pmu::Event::MemReadTier2);
  result.dram_hitrate = (t1 + t2) == 0 ? 1.0
                                       : static_cast<double>(t1) /
                                             static_cast<double>(t1 + t2);
  result.runtime_ns = system.now();
  result.tier_fills.assign(tiers.size(), 0);
  for (const sim::Process* p : system.processes()) {
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      result.tier_fills[t] += p->tier_fills(static_cast<mem::TierId>(t));
    }
  }
  if (daemon.driver().devmon() != nullptr) {
    result.devmon_reported = daemon.driver().devmon()->reported();
  }
  return result;
}

/// The testbed ladders: 32 MiB of DRAM, an optional 64 MiB
/// CXL-class middle tier, and an NVM-class tier big enough for the whole
/// footprint (so nothing ever fails to allocate).
inline std::uint64_t chain_dram_frames() {
  return (32ULL << 20) >> mem::kPageShift;
}
inline std::uint64_t chain_backing_frames(
    const workloads::WorkloadSpec& spec) {
  return (spec.total_bytes >> mem::kPageShift) * 5 / 4 + 4096;
}

inline std::vector<mem::TierSpec> two_tier_chain(
    const workloads::WorkloadSpec& spec) {
  return {mem::TierSpec{"dram", chain_dram_frames(), 80, 80, 0},
          mem::TierSpec{"nvm", chain_backing_frames(spec), 300, 600, 0}};
}

inline std::vector<mem::TierSpec> three_tier_chain(
    const workloads::WorkloadSpec& spec) {
  return {mem::TierSpec{"dram", chain_dram_frames(), 80, 80, 0},
          mem::TierSpec{"cxl", (64ULL << 20) >> mem::kPageShift, 150, 200, 0},
          mem::TierSpec{"nvm", chain_backing_frames(spec), 300, 600, 0}};
}

inline std::vector<mem::TierSpec> four_tier_chain(
    const workloads::WorkloadSpec& spec) {
  return {mem::TierSpec{"dram", chain_dram_frames(), 80, 80, 0},
          mem::TierSpec{"cxl", (48ULL << 20) >> mem::kPageShift, 150, 200, 0},
          mem::TierSpec{"nvm", (96ULL << 20) >> mem::kPageShift, 300, 600, 0},
          mem::TierSpec{"cold", chain_backing_frames(spec), 900, 1800, 0}};
}

}  // namespace tmprof::bench
