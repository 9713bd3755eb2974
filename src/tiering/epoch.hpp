#pragma once
/// \file epoch.hpp
/// Epoch-series collection: run a workload under the TMP daemon for N
/// epochs, recording both the ground-truth per-page memory-access counts
/// (what the Oracle policy and the hitrate metric need) and the profiler's
/// per-source observations (what History consumes). Fig. 6 and the
/// speedup study replay these series through the policies offline, exactly
/// as the paper computes policy results "based on the profiling data".

#include <cstdint>
#include <vector>

#include "core/daemon.hpp"
#include "monitors/event.hpp"
#include "sim/system.hpp"
#include "tiering/loop.hpp"
#include "tiering/policy.hpp"
#include "util/ckpt.hpp"
#include "workloads/registry.hpp"

namespace tmprof::tiering {

/// Ground-truth observer: counts beyond-LLC accesses per page and records
/// first-touch order (the order pages would be allocated).
///
/// Under the sharded engine the collector shards natively: each core gets a
/// private sub-collector (pages are pid-owned and pids are core-affine, so
/// the key spaces are disjoint) whose state folds into the global view at
/// the epoch barrier in ascending core order.
class TruthCollector final : public monitors::AccessObserver {
 public:
  explicit TruthCollector(sim::System& system);

  void on_mem_op(const monitors::MemOpEvent& event) override;

  monitors::AccessObserver* shard_sink(std::uint32_t core) override;
  void merge_shards() override;

  /// Swap out this epoch's truth counts and newly-seen pages. The swapped
  /// buffers come back (cleared, capacity retained) next call, so a caller
  /// that reuses one EpochData keeps the epoch loop allocation-free.
  /// Returns the epoch's total of beyond-LLC accesses.
  std::uint64_t end_epoch(core::TruthMap& truth_out,
                          std::vector<PageKey>& new_pages_out);

  [[nodiscard]] const PageSizeMap& page_sizes() const noexcept {
    return page_sizes_;
  }

  /// Checkpoint hooks: the open epoch's counts and total, the cross-epoch
  /// `seen` sets (global and per-shard) and the page-size map. Shard count
  /// must match on load.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  /// One core's collector, written by that core's worker on every access,
  /// so cache-line aligned.
  struct alignas(util::kCacheLine) Shard final : monitors::AccessObserver {
    void on_mem_op(const monitors::MemOpEvent& event) override;

    core::TruthMap truth;
    core::PageSet seen;  ///< persists across epochs
    std::vector<std::pair<PageKey, mem::PageSize>> new_pages;
  };

  sim::System& system_;
  core::TruthMap truth_;
  std::uint64_t total_ = 0;  ///< sum of truth_'s counts
  core::PageSet seen_;
  std::vector<PageKey> new_pages_;
  PageSizeMap page_sizes_;
  std::vector<Shard> shards_;  ///< one per core when the engine is sharded
};

/// One epoch's record.
struct EpochData {
  std::uint32_t epoch = 0;
  /// Per-page beyond-LLC access counts (ground truth).
  core::TruthMap truth;
  std::uint64_t truth_total = 0;
  /// The profiler's observations (A-bit / trace maps).
  core::EpochObservation observed;
  /// Pages first touched during this epoch, in order.
  std::vector<PageKey> new_pages;
};

struct EpochSeries {
  std::vector<EpochData> epochs;
  PageSizeMap page_sizes;
  std::uint64_t footprint_frames = 0;  ///< frames of all pages ever seen
  /// Daemon degradation tallies over the collection run (all zero unless
  /// CollectOptions::daemon.fault enabled sites).
  core::DegradeStats degrade{};
};

struct CollectOptions : LoopOptions {
  core::DaemonConfig daemon;
};

/// Factory for a Table III spec (make_workload per process).
[[nodiscard]] WorkloadFactory spec_factory(const workloads::WorkloadSpec& spec);

/// Run workloads under the TMP daemon and collect their epoch series. An
/// invalid configuration throws ConfigError (check_options) before the
/// factory runs.
[[nodiscard]] EpochSeries collect_series(const WorkloadFactory& factory,
                                         const sim::SimConfig& sim_config,
                                         const CollectOptions& options);
/// Same, with the i-th process at scheduler weight `process_weights[i]`
/// (missing entries 1.0): the runner's Oracle pre-pass shadows a weighted
/// run on that run's own schedule.
[[nodiscard]] EpochSeries collect_series(
    const WorkloadFactory& factory, const sim::SimConfig& sim_config,
    const CollectOptions& options, const std::vector<double>& process_weights);
[[nodiscard]] EpochSeries collect_series(const workloads::WorkloadSpec& spec,
                                         const sim::SimConfig& sim_config,
                                         const CollectOptions& options);

/// Build a System populated with the spec's processes (shared by benches).
void add_spec_processes(sim::System& system,
                        const workloads::WorkloadSpec& spec,
                        std::uint64_t seed);

/// Checkpoint serialization of collected epoch records (maps are written in
/// ascending key order; see core::save_page_counts).
void save_epoch_data(util::ckpt::Writer& w, const EpochData& data);
void load_epoch_data(util::ckpt::Reader& r, EpochData& data);
void save_series(util::ckpt::Writer& w, const EpochSeries& series);
void load_series(util::ckpt::Reader& r, EpochSeries& series);

}  // namespace tmprof::tiering
