#pragma once
/// \file profile.hpp
/// The Section V characterisation (Table IV, Figs. 3-5): one profiling pass
/// running TMP's two sources side by side over a built system, and the
/// plain-data reductions the figures print. The pass keeps the trace
/// samples the driver keeps (monitors::keeps_trace_sample), so the figures
/// measure the profiler the policies rank.

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "monitors/abit.hpp"
#include "monitors/ibs.hpp"
#include "sim/system.hpp"
#include "util/histogram.hpp"

namespace tmprof::tiering {

/// Run `epochs` epochs of `ops_per_epoch` ops under one IBS monitor per
/// `rates` entry (monitor r seeded `seed + r`, observing in list order) and
/// an A-bit scanner. Each epoch steps, drains every monitor, then scans
/// every process. Kept trace samples (buffer-full drains mid-step too) go
/// to `on_trace(r, epoch, sample)`, A-bit samples to `on_abit(epoch,
/// sample)`.
template <class OnTrace, class OnAbit>
void profile_pass(sim::System& system,
                  std::span<const monitors::IbsConfig> rates,
                  std::uint64_t seed, std::uint32_t epochs,
                  std::uint64_t ops_per_epoch, OnTrace&& on_trace,
                  OnAbit&& on_abit) {
  std::uint32_t epoch = 0;
  std::vector<std::unique_ptr<monitors::IbsMonitor>> ibs;
  // Unregisters the monitors before they die, however the pass ends.
  struct Detach {
    sim::System& system;
    std::vector<std::unique_ptr<monitors::IbsMonitor>>& ibs;
    ~Detach() {
      for (auto& monitor : ibs) system.remove_observer(monitor.get());
    }
  } detach{system, ibs};
  for (std::size_t r = 0; r < rates.size(); ++r) {
    ibs.push_back(std::make_unique<monitors::IbsMonitor>(
        rates[r], system.config().cores, seed + r));
    ibs.back()->set_drain([&, r](std::span<const monitors::TraceSample> s) {
      for (const monitors::TraceSample& sample : s) {
        if (monitors::keeps_trace_sample(sample)) on_trace(r, epoch, sample);
      }
    });
    system.add_observer(ibs.back().get());
  }
  monitors::AbitScanner scanner{monitors::AbitConfig{}};
  for (; epoch < epochs; ++epoch) {
    system.step(ops_per_epoch);
    for (auto& monitor : ibs) monitor->drain();
    for (sim::Process* proc : system.processes()) {
      scanner.scan(proc->pid(), proc->page_table(),
                   [&](const monitors::AbitSample& s) { on_abit(epoch, s); });
    }
  }
}

/// Observation count per frame number.
using FrameCounts = std::unordered_map<mem::Pfn, std::uint32_t>;

/// One epoch's frames: kept trace samples' 4 KiB frames per rate, and the
/// head frames of the mappings the A-bit scan found accessed.
struct EpochFrames {
  std::vector<std::vector<mem::Pfn>> trace;
  std::vector<mem::Pfn> abit;
};

/// Fig. 5's per-frame counts; Table IV's page counts are the maps' sizes.
struct DetectedPages {
  std::vector<FrameCounts> trace;  ///< per rate
  FrameCounts abit;
  /// Per rate: frames both sources saw in one epoch, once each (Table IV
  /// "Both": same-epoch co-detection at 4 KiB frame granularity).
  std::vector<std::uint64_t> both;
};

/// Reduce epochs whose `trace` each hold `rates` entries.
[[nodiscard]] DetectedPages reduce_detections(
    std::span<const EpochFrames> epochs, std::size_t rates);

/// Table IV and Fig. 5: the profiling pass over `system`, reduced.
[[nodiscard]] DetectedPages detect_pages(
    sim::System& system, std::span<const monitors::IbsConfig> rates,
    std::uint64_t seed, std::uint32_t epochs, std::uint64_t ops_per_epoch);

/// A time x physical-address grid and how many observations it binned.
struct AccessHeatmap {
  util::Heatmap grid;
  std::uint64_t observations = 0;
};

/// Fig. 3: one monitor's kept samples over one `ops`-op epoch, by time.
[[nodiscard]] AccessHeatmap trace_heatmap(
    sim::System& system, const monitors::IbsConfig& rate, std::uint64_t seed,
    std::uint64_t ops, std::size_t time_bins, std::size_t addr_bins);

/// Fig. 4: a column per A-bit scan, each accessed page weighted by its
/// 4 KiB span so the two figures share a colour scale.
[[nodiscard]] AccessHeatmap abit_heatmap(sim::System& system,
                                         std::uint32_t epochs,
                                         std::uint64_t ops_per_epoch,
                                         std::size_t addr_bins);

}  // namespace tmprof::tiering
