#include "tiering/options.hpp"

#include <array>

#include "mem/tiers.hpp"
#include "sim/system.hpp"
#include "tiering/epoch.hpp"
#include "tiering/loop.hpp"
#include "tiering/runner.hpp"

namespace tmprof::tiering {

namespace {

enum Rule : std::size_t {
  kThreads,
  kTierCount,
  kTierName,
  kTierFrames,
  kTierOrder,
  kStreamRing,
  kStreamEngine,
  kDevMonSlots,
  kDevMonTopK,
  kCooldown,
  kMinHistory,
  kTenants,
  kRuleCount
};

constexpr std::array<OptionRule, kRuleCount> kRules{{
    {"n_threads", "--threads",
     "the engine runs at most tiering::kMaxThreads threads"},
    {"sim.tiers", "--tiers", "a chain has 2 to mem::kMaxTiers tiers"},
    {"sim.tiers", "--tiers", "every tier is named"},
    {"sim.tiers", "--tiers", "every tier holds at least one frame"},
    {"sim.tiers", "--tiers",
     "the chain is ordered fastest first (read latency never falls)"},
    {"daemon.driver.stream.ring_capacity", "--stream-ring",
     "the ring capacity is a power of two >= 2"},
    {"daemon.driver.stream.enabled", "--stream",
     "streaming needs the sharded engine (n_threads >= 1, --threads=N)"},
    {"daemon.driver.devmon.slots", "--devmon-slots",
     "a device has at least 1 counter slot"},
    {"daemon.driver.devmon.top_k", "--devmon-topk",
     "the per-epoch report size lies in [1, slots]"},
    {"mover.admission.cooldown_epochs", "--cooldown-epochs",
     "the ping-pong window lies in [1, tiering::kMaxCooldownEpochs]"},
    {"mover.admission.min_history", "--min-history",
     "the evidence requirement lies in [1, tiering::kHistoryEpochs]"},
    {"tenants", "--tenants", "no more tenants than the run has processes"},
}};

[[noreturn]] void fail(Rule rule, const std::string& detail) {
  throw ConfigError(kRules[rule], detail);
}

void check_tiers(const sim::SimConfig& sim) {
  if (!sim.tiers.empty() &&
      (sim.tiers.size() < 2 || sim.tiers.size() > mem::kMaxTiers)) {
    fail(kTierCount, "got " + std::to_string(sim.tiers.size()) + " tiers, " +
                         "mem::kMaxTiers is " +
                         std::to_string(mem::kMaxTiers));
  }
  // An empty chain is the two-tier shorthand, whose frames can still be 0.
  const std::vector<mem::TierSpec> chain = sim::tier_specs(sim);
  for (std::size_t t = 0; t < chain.size(); ++t) {
    if (chain[t].name.empty()) {
      fail(kTierName, "tier " + std::to_string(t) + " has no name");
    }
    if (chain[t].frames == 0) {
      fail(kTierFrames, "tier '" + chain[t].name + "' has zero frames");
    }
    if (t > 0 && chain[t].read_latency_ns < chain[t - 1].read_latency_ns) {
      fail(kTierOrder,
           "'" + chain[t].name + "' (read " +
               std::to_string(chain[t].read_latency_ns) +
               " ns) is faster than '" + chain[t - 1].name + "' (read " +
               std::to_string(chain[t - 1].read_latency_ns) + " ns)");
    }
  }
}

/// The engine rules of a loop driver: the thread ceiling, then the
/// simulator and daemon rules on the engine `loop.n_threads` selects.
void check_loop(const sim::SimConfig& sim, const LoopOptions& loop,
                const core::DaemonConfig& daemon) {
  if (loop.n_threads > kMaxThreads) {
    fail(kThreads, "got " + std::to_string(loop.n_threads) +
                       ", tiering::kMaxThreads is " +
                       std::to_string(kMaxThreads));
  }
  check_options(loop_config(sim, loop), daemon);
}

}  // namespace

std::span<const OptionRule> option_rules() { return kRules; }

ConfigError::ConfigError(const OptionRule& rule, const std::string& detail)
    : std::invalid_argument(std::string(rule.field) + " (" +
                            std::string(rule.flag) + "): " +
                            std::string(rule.rule) +
                            (detail.empty() ? "" : "; " + detail)),
      rule_(&rule) {}

void check_options(const sim::SimConfig& sim,
                   const core::DaemonConfig& daemon) {
  check_tiers(sim);
  const core::StreamConfig& stream = daemon.driver.stream;
  if (stream.ring_capacity < 2 ||
      (stream.ring_capacity & (stream.ring_capacity - 1)) != 0) {
    fail(kStreamRing, "got " + std::to_string(stream.ring_capacity));
  }
  if (stream.enabled && !sim.sharded_engine) {
    fail(kStreamEngine, "the serial engine has no per-core lanes");
  }
  const monitors::DevMonConfig& devmon = daemon.driver.devmon;
  if (devmon.slots == 0) fail(kDevMonSlots, "got 0");
  if (devmon.top_k == 0 || devmon.top_k > devmon.slots) {
    fail(kDevMonTopK, "got " + std::to_string(devmon.top_k) + " of " +
                          std::to_string(devmon.slots) + " slots");
  }
}

void check_options(const sim::SimConfig& sim, const CollectOptions& options) {
  check_loop(sim, options, options.daemon);
}

void check_options(const sim::SimConfig& sim, const RunnerOptions& options,
                   std::size_t processes) {
  check_loop(sim, options, options.daemon);
  const AdmissionConfig& admission = options.mover.admission;
  if (admission.cooldown_epochs == 0 ||
      admission.cooldown_epochs > kMaxCooldownEpochs) {
    fail(kCooldown, "got " + std::to_string(admission.cooldown_epochs) +
                        ", the cap is " + std::to_string(kMaxCooldownEpochs));
  }
  if (admission.min_history == 0 || admission.min_history > kHistoryEpochs) {
    fail(kMinHistory, "got " + std::to_string(admission.min_history) +
                          ", the window is " + std::to_string(kHistoryEpochs));
  }
  if (options.tenants.size() > processes) {
    fail(kTenants, std::to_string(options.tenants.size()) + " tenants, " +
                       std::to_string(processes) + " processes");
  }
}

}  // namespace tmprof::tiering
