#pragma once
/// \file loop.hpp
/// The epoch loop behind EndToEndRunner::run and collect_series: it builds
/// the System, resumes, steps each epoch on the serial or sharded engine,
/// records the epoch's telemetry, checkpoints through one Manifest and
/// falls back to a cold start when a resume is rejected
/// (docs/RECOVERY.md). A driver supplies its components, as checkpoint
/// participants, and the body it runs after each epoch's step.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/system.hpp"
#include "telemetry/metrics.hpp"
#include "util/ckpt.hpp"
#include "workloads/registry.hpp"

namespace tmprof::telemetry {
class Telemetry;
}  // namespace tmprof::telemetry

namespace tmprof::tiering {

/// Produces the processes' workload generators for one run. Must be
/// deterministic: the Oracle pre-pass and the measured run each invoke it
/// and rely on getting identical streams.
using WorkloadFactory =
    std::function<std::vector<workloads::WorkloadPtr>(std::uint64_t seed)>;

/// What every epoch-loop driver takes; RunnerOptions and CollectOptions
/// inherit it.
struct LoopOptions {
  std::uint32_t n_epochs = 12;
  std::uint64_t ops_per_epoch = 1'000'000;
  std::uint64_t seed = 42;
  /// 0 (default) = legacy serial engine, bit-exact historical behavior.
  /// >= 1 = deterministic sharded engine; 1 runs the shards inline, > 1
  /// uses a worker pool. All values >= 1 produce identical results.
  std::uint32_t n_threads = 0;
  /// Periodic checkpointing and resume (docs/RECOVERY.md). A rejected
  /// resume file logs the bad section and falls back to a cold start.
  util::ckpt::Options checkpoint{};
  /// Called after each completed epoch (chaos harness kill hook).
  std::function<void(std::uint32_t)> on_epoch;
  /// Telemetry sink wired through every layer for the duration of the run;
  /// null (default) disables telemetry at zero hot-path cost
  /// (docs/OBSERVABILITY.md). Not owned; do not share one sink across
  /// concurrently running loops. Telemetry state rides in the checkpoint,
  /// so a resumed run exports identical files.
  telemetry::Telemetry* telemetry = nullptr;
  /// Chrome-trace process label ("" = the driver's default: the policy
  /// name for the runner, "collect" for collect_series).
  std::string telemetry_label;
};

/// The config a loop builds its System with: `config`, on the sharded
/// engine when `options.n_threads` >= 1.
[[nodiscard]] sim::SimConfig loop_config(const sim::SimConfig& config,
                                         const LoopOptions& options);

/// One attempt at a run. The constructor builds the System, adds the
/// processes and attaches telemetry; the driver then builds its components
/// on system(), registers them with add() and calls run(). Checkpoint
/// sections are "meta", "system", the driver's participants, then
/// "telemetry". Participants capture the loop by reference, so it can be
/// neither copied nor moved.
class EpochLoop {
 public:
  /// `generators` are the processes' workloads, as the run's factory
  /// yields them for `options.seed`; `process_weights[i]` is the scheduler
  /// weight of the i-th (missing entries 1.0).
  EpochLoop(std::vector<workloads::WorkloadPtr> generators,
            const sim::SimConfig& config, const LoopOptions& options,
            const std::vector<double>& process_weights,
            std::string_view default_label);
  EpochLoop(const EpochLoop&) = delete;
  EpochLoop& operator=(const EpochLoop&) = delete;

  [[nodiscard]] sim::System& system() noexcept { return system_; }
  /// The config the System was built with (sharded when n_threads >= 1).
  [[nodiscard]] const sim::SimConfig& config() const noexcept {
    return config_;
  }
  /// First epoch this attempt runs: 0 cold, else the checkpoint's resume
  /// epoch (known once the "meta" section has loaded).
  [[nodiscard]] std::uint32_t start_epoch() const noexcept {
    return start_epoch_;
  }

  /// Register the next checkpoint section.
  void add(util::ckpt::Participant participant);

  /// Load `resume_path` ("" = cold start), then run the remaining epochs,
  /// calling `body(e)` after epoch e's step. `identity` writes the "meta"
  /// fields that pin the run; a checkpoint whose "meta" does not open with
  /// exactly those bytes is rejected.
  void run(const std::string& resume_path,
           std::function<void(util::ckpt::Writer&)> identity,
           const std::function<void(std::uint32_t)>& body);

 private:
  const LoopOptions& options_;
  sim::SimConfig config_;
  sim::System system_;
  util::ckpt::Manifest manifest_;
  std::function<void(util::ckpt::Writer&)> identity_;
  /// The last checkpoint image; each save rebuilds it in place, keeping
  /// its capacity.
  std::vector<std::uint8_t> image_;
  util::ckpt::Retention retention_;
  telemetry::Counter epochs_counter_;
  std::uint32_t start_epoch_ = 0;
  std::uint32_t epochs_done_ = 0;  ///< resume epoch written into "meta"
};

/// Calls `attempt` with the checkpoint `options` names for resume
/// (`resume_from`, else the newest in `dir` when `resume_latest`). If there
/// is none, or that attempt throws CkptError, calls `attempt("")`: a cold
/// start on freshly built objects, after a warning that names `who` and
/// the rejected section.
void run_resumable(const LoopOptions& options, std::string_view who,
                   const std::function<void(const std::string&)>& attempt);

}  // namespace tmprof::tiering
