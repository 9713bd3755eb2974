#pragma once
/// \file runner.hpp
/// End-to-end tiered-memory execution (Section VI-C). Runs a workload
/// online: the TMP daemon profiles each epoch, the policy picks tier-1
/// residents, the page mover migrates at the epoch horizon, and the run's
/// total simulated time yields the speedup over the first-come-first-
/// allocate baseline.
///
/// Two slow-memory models are supported:
///  * native     — tier 2 has NVM-class load/store latency (simulator-native)
///  * badgertrap — both tiers are DRAM-fast, but tier-2 pages are poisoned
///                 each refresh period and every faulting access pays the
///                 paper's emulation constants (10 µs, +13 µs if hot).
///                 This reproduces the paper's emulation framework exactly.

#include <cstdint>
#include <string>
#include <vector>

#include "core/daemon.hpp"
#include "monitors/badgertrap.hpp"
#include "sim/system.hpp"
#include "tiering/epoch.hpp"
#include "tiering/mover.hpp"
#include "tiering/policies.hpp"
#include "tiering/tenant.hpp"
#include "workloads/registry.hpp"

namespace tmprof::tiering {

enum class SlowMemoryModel : std::uint8_t { Native, BadgerTrapEmulation };

/// Parses "native" / "badgertrap"; throws std::invalid_argument naming
/// --model and the valid names otherwise.
[[nodiscard]] SlowMemoryModel parse_slow_model(const std::string& text);

struct RunnerOptions : LoopOptions {
  std::string policy = "history";       ///< "first-touch" disables migration
  core::FusionMode fusion = core::FusionMode::Sum;
  SlowMemoryModel slow_model = SlowMemoryModel::Native;
  MoverConfig mover;                      ///< migration cost + thresholds
  monitors::BadgerTrapConfig badgertrap;  ///< used in emulation mode
  core::DaemonConfig daemon;
  /// Deterministic fault injection, shared by the mover and the daemon
  /// (docs/ROBUSTNESS.md). Disabled by default; see --fault-rate,
  /// --fault-seed and --fault-sites on the benches.
  util::FaultConfig fault{};
  /// Fleet consolidation (docs/CONSOLIDATION.md): tenants[i] owns the i-th
  /// process the factory yields. Empty (default) disables arbitration and
  /// keeps every layer bitwise identical to its pre-fleet behavior. The
  /// arbiter checkpoints in its own "tenant" section; a resumed run with a
  /// different tenant shape rejects the section and cold-starts.
  std::vector<TenantSpec> tenants;
  /// Scheduler weight of the i-th process (missing entries default 1.0).
  std::vector<double> process_weights;
};

struct RunnerResult {
  util::SimNs runtime_ns = 0;          ///< includes charged profiling cost
  double tier1_hitrate = 0.0;          ///< memory accesses served by tier 1
  std::uint64_t migrations = 0;
  std::uint64_t protection_faults = 0; ///< emulation-mode faults taken
  util::SimNs profiling_overhead_ns = 0;
  MoveStats moves;                     ///< mover tallies summed over epochs
  core::DegradeStats degrade;          ///< daemon degradation tallies
  /// Per-tenant summaries (empty unless RunnerOptions::tenants was set).
  std::vector<TenantOutcome> tenants;
  /// Final tier-1 hitrate of every process, in factory yield order (always
  /// filled; lets benches attribute hitrates with arbitration off).
  std::vector<double> process_hitrates;
};

class EndToEndRunner {
 public:
  /// Execute one configuration. The first tier of sim::tier_specs(
  /// sim_config) is the fast tier; the tiers below it must be large enough
  /// for the spilled footprint. An invalid configuration throws
  /// ConfigError (check_options) before the System is built.
  [[nodiscard]] static RunnerResult run(const workloads::WorkloadSpec& spec,
                                        const sim::SimConfig& sim_config,
                                        const RunnerOptions& options);

  /// Same, for arbitrary workload sets (custom applications).
  [[nodiscard]] static RunnerResult run(const WorkloadFactory& factory,
                                        const sim::SimConfig& sim_config,
                                        const RunnerOptions& options);
};

}  // namespace tmprof::tiering
