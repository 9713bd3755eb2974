#pragma once
/// \file options.hpp
/// Which run configurations are valid. check_options is the one place a
/// configuration is accepted or rejected: EndToEndRunner::run and
/// collect_series call it on entry, before they build a System or touch
/// the checkpoint directory, and a driver that builds a TmpDaemon itself
/// calls it first. The TMPROF_EXPECTS inside the components stay as
/// internal assertions behind it. DESIGN.md's rule table lists
/// option_rules().

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/daemon.hpp"
#include "sim/config.hpp"

namespace tmprof::tiering {

struct CollectOptions;
struct RunnerOptions;

/// The most engine threads a run may ask for (`n_threads`, --threads).
/// Threads past the simulated core count only idle; the ceiling keeps a
/// mistyped count from starting that many OS threads.
inline constexpr std::uint32_t kMaxThreads = 64;

/// One rule that a valid run configuration meets.
struct OptionRule {
  std::string_view field;  ///< the option it constrains, as a member path
  std::string_view flag;   ///< the bench flag that sets that option
  std::string_view rule;   ///< what a valid value satisfies
};

/// Every rule check_options enforces, in the order it tests them.
[[nodiscard]] std::span<const OptionRule> option_rules();

/// A rejected run configuration. what() reads "<field> (<flag>): <rule>",
/// then the offending detail. Being a std::invalid_argument, a bench's
/// run_main reports it as a usage error (exit 2).
class ConfigError : public std::invalid_argument {
 public:
  ConfigError(const OptionRule& rule, const std::string& detail);
  [[nodiscard]] std::string_view field() const noexcept {
    return rule_->field;
  }

 private:
  const OptionRule* rule_;
};

/// Throws ConfigError unless the tier chain, the streaming transport and
/// DevMon options are valid together. `sim.sharded_engine` names the
/// engine that steps the run.
void check_options(const sim::SimConfig& sim,
                   const core::DaemonConfig& daemon);

/// collect_series's form: the thread ceiling, then the above on the
/// engine `options.n_threads` selects.
void check_options(const sim::SimConfig& sim, const CollectOptions& options);

/// The runner's form: the collector's rules, plus the admission and tenant
/// rules. `processes` is the number of processes the run's workload
/// factory yields.
void check_options(const sim::SimConfig& sim, const RunnerOptions& options,
                   std::size_t processes);

}  // namespace tmprof::tiering
