#pragma once
/// \file daemon.hpp
/// The user-space TMP daemon (Section III-B3): supplies PIDs to profile,
/// reads the cheap HWPC miss counters to gate the expensive mechanisms,
/// triggers A-bit scans, and publishes per-epoch profile snapshots through
/// a numa_maps-style text interface.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/gating.hpp"
#include "core/pid_filter.hpp"
#include "core/ranking.hpp"
#include "sim/system.hpp"

namespace tmprof::core {

struct DaemonConfig {
  DriverConfig driver;
  bool gating_enabled = true;
  double gate_threshold = 0.2;
  /// Re-evaluate the PID filter on every tick and scan only the processes
  /// it keeps; off scans every process.
  bool pid_filter_enabled = true;
  FusionMode fusion = FusionMode::Sum;
  /// Weight of the device-counter signal under FusionMode::SumDev. The
  /// device sees every fill its tier serves while sampling sees a sparse
  /// subset, so a fractional weight keeps the signals comparable
  /// (docs/TOPOLOGY.md).
  double devmon_weight = 1.0;
  /// Charge modeled profiling overhead to the system clock (on for
  /// end-to-end experiments, off for pure visibility studies).
  bool charge_overhead = false;
  /// Deterministic fault injection for the daemon-side sites (trace-buffer
  /// overflow, A-bit scan abort, HWPC counter wrap). Disabled by default.
  util::FaultConfig fault{};
};

/// Trace-loss ladder (docs/ROBUSTNESS.md): epochs losing more than this
/// fraction of trace samples rescale the surviving samples' weight.
inline constexpr double kTraceRescaleThreshold = 0.02;
/// Epochs losing at least this fraction abandon the trace source and fall
/// back to A-bit-only fusion (the scan evidence is still trustworthy).
inline constexpr double kTraceFallbackThreshold = 0.5;
/// QoS-aware rung (docs/CONSOLIDATION.md): with a QoS lookup attached,
/// losses in [kTraceFallbackThreshold, this) degrade only *batch* tenants
/// to A-bit-only ranking while latency tenants keep the rescaled mixed
/// ranking; at or above this fraction everyone falls back.
inline constexpr double kQosFullFallbackThreshold = 0.9;

/// The watchdog pins the last good ranking after this many consecutive bad
/// scans (aborted or empty).
inline constexpr std::uint32_t kWatchdogThreshold = 3;

/// Cumulative degradation tallies (how often each fallback engaged).
struct DegradeStats {
  std::uint64_t hwpc_wraps = 0;       ///< counter wraps detected (delta held)
  std::uint64_t scans_aborted = 0;    ///< A-bit walks cut short
  std::uint64_t trace_dropped = 0;    ///< trace samples lost to overflow
  std::uint64_t rescaled_epochs = 0;  ///< epochs that rescaled trace weight
  std::uint64_t fallback_epochs = 0;  ///< epochs that fell back to A-bit-only
  std::uint64_t pinned_epochs = 0;    ///< epochs served the pinned ranking
  /// Epochs the QoS-selective rung degraded batch tenants only.
  std::uint64_t qos_fallback_epochs = 0;
  /// Epochs in which the migration admission gate shed or bandwidth-refused
  /// at least one move (filled by the runner from the AdmissionController;
  /// the daemon itself neither writes nor serializes this field).
  std::uint64_t throttled_epochs = 0;
};

/// One published profile (Step 1 output: pages ranked by hotness).
struct ProfileSnapshot {
  std::uint32_t epoch = 0;
  std::vector<PageRank> ranking;       ///< descending hotness
  EpochObservation observation;        ///< raw per-source counts
  bool abit_ran = false;               ///< scan executed (not gated off)
  bool trace_ran = false;              ///< trace collection was live
  bool abit_aborted = false;           ///< scan was cut short mid-walk
  bool pinned = false;                 ///< watchdog served last good ranking
  bool trace_fallback = false;         ///< ladder fell back to A-bit-only
  bool qos_fallback = false;           ///< batch-only A-bit degradation
  double trace_loss = 0.0;             ///< fraction of trace samples lost
  std::uint64_t trace_dropped = 0;     ///< trace samples lost this epoch
};

class TmpDaemon {
 public:
  TmpDaemon(sim::System& system, const DaemonConfig& config);

  /// Close the current period: read counters, update gates, run the A-bit
  /// scan over filtered PIDs, and emit the epoch's snapshot. The caller
  /// drives the system between calls (one call per elapsed period).
  ProfileSnapshot tick();

  /// Allocation-reusing form: publishes into `out`, recycling its ranking
  /// vector and observation maps. A caller that keeps one ProfileSnapshot
  /// across epochs runs the tick path allocation-free after warmup.
  void tick_into(ProfileSnapshot& out);

  [[nodiscard]] TmpDriver& driver() noexcept { return driver_; }
  /// PIDs selected by the most recent tick's filter evaluation.
  [[nodiscard]] const std::vector<mem::Pid>& tracked_pids() const noexcept {
    return tracked_pids_;
  }
  /// Cumulative degradation tallies (all zero under fault-free operation,
  /// except pinned_epochs which the watchdog can raise on genuinely empty
  /// scans too).
  [[nodiscard]] const DegradeStats& degrade_stats() const noexcept {
    return degrade_;
  }

  /// Attach (or with null, detach) the telemetry sink for the daemon's
  /// gate/ladder/watchdog metrics and the per-tick span; forwards to the
  /// owned driver (docs/OBSERVABILITY.md). The System's own sink is
  /// attached separately by whoever owns the System.
  void set_telemetry(telemetry::Telemetry* telemetry);

  /// Attach the fleet QoS lookup (docs/CONSOLIDATION.md): true for pids
  /// owned by a *batch* tenant. Enables the QoS-selective degradation rung;
  /// unset (default) keeps the ladder bitwise identical to its
  /// pre-consolidation behavior.
  void set_qos_lookup(std::function<bool(mem::Pid)> is_batch) {
    qos_is_batch_ = std::move(is_batch);
  }
  /// PIDs the filter must always track regardless of resource share
  /// (latency tenants in a consolidated fleet). Forwards to the PidFilter.
  void set_pinned_pids(std::vector<mem::Pid> pids) {
    pid_filter_.set_pinned(std::move(pids));
  }

  /// numa_maps-style dump of a snapshot's top pages.
  [[nodiscard]] static std::string dump(const ProfileSnapshot& snapshot,
                                        std::size_t top_n = 20);

  /// Checkpoint hooks: driver, gates, PID-filter baseline, degradation
  /// ladder position and the watchdog's pinned ranking.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  sim::System& system_;
  DaemonConfig config_;
  TmpDriver driver_;
  ActivityGate abit_gate_;
  ActivityGate trace_gate_;
  PidFilter pid_filter_;
  std::vector<mem::Pid> tracked_pids_;
  util::FaultInjector fault_;
  DegradeStats degrade_;
  std::uint64_t last_llc_miss_ = 0;
  std::uint64_t last_tlb_walk_ = 0;
  std::uint64_t prev_llc_delta_ = 0;   ///< held when a wrap is detected
  std::uint64_t prev_tlb_delta_ = 0;
  std::uint64_t last_trace_kept_ = 0;
  std::uint64_t last_trace_dropped_ = 0;
  std::uint32_t bad_scans_ = 0;        ///< consecutive aborted/empty scans
  std::vector<PageRank> last_good_ranking_;
  RankingScratch ranking_scratch_;     ///< reused by every tick's fusion
  std::uint64_t tick_seq_ = 0;
  std::function<bool(mem::Pid)> qos_is_batch_;  ///< unset = no QoS rung

  telemetry::Telemetry* telemetry_ = nullptr;  ///< not owned; may be null
  telemetry::Counter t_ticks_;
  telemetry::Counter t_scans_run_;
  telemetry::Counter t_abit_gated_;
  telemetry::Counter t_trace_gated_;
  telemetry::Counter t_hwpc_wraps_;
  telemetry::Counter t_rescaled_;
  telemetry::Counter t_fallback_;
  telemetry::Counter t_qos_fallback_;
  telemetry::Counter t_pinned_;
  telemetry::Gauge t_tracked_pids_;
  telemetry::Gauge t_ladder_state_;
};

}  // namespace tmprof::core
