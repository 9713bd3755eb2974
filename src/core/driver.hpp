#pragma once
/// \file driver.hpp
/// The TMP kernel driver analog (Section III-B). Owns the trace-based
/// monitor (IBS or PEBS) and the A-bit scanner, drains their raw data, and
/// accumulates per-page statistics into the page-descriptor store and the
/// current epoch's observation maps.
///
/// Filtering follows the paper: trace samples count only if they are demand
/// loads whose data source is beyond the LLC (TMP uses IBS/PEBS "to inspect
/// memory accessed from regular last-level caches"), because a page that is
/// frequently accessed but hits in cache gains nothing from migration.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hotness.hpp"
#include "core/page_stats.hpp"
#include "core/ranking.hpp"
#include "core/stream.hpp"
#include "monitors/abit.hpp"
#include "monitors/devmon.hpp"
#include "monitors/ibs.hpp"
#include "monitors/pebs.hpp"
#include "monitors/pml.hpp"
#include "sim/system.hpp"
#include "telemetry/metrics.hpp"
#include "util/fault.hpp"

namespace tmprof::telemetry {
class Telemetry;
}

namespace tmprof::core {

enum class TraceBackend : std::uint8_t { Ibs, Pebs };

struct DriverConfig {
  TraceBackend backend = TraceBackend::Ibs;
  monitors::IbsConfig ibs;
  monitors::PebsConfig pebs;
  monitors::AbitConfig abit;
  /// Count only demand loads (not stores) from the trace stream.
  bool trace_loads_only = true;
  /// Count only samples whose data source is beyond the LLC.
  bool trace_memory_only = true;
  /// Also collect Page-Modification Logging (dirty-page) evidence for
  /// write-aware policies. Off by default: TMP's focus is demand loads.
  bool use_pml = false;
  monitors::PmlConfig pml;
  /// Device-side hot-page counters at each non-fastest tier's memory
  /// controller (docs/TOPOLOGY.md). Off by default; `devmon.enabled`
  /// gates construction, so disabled runs are bitwise unchanged.
  monitors::DevMonConfig devmon;
  /// Hotness front-end: exact FlatHashMap counters (default, historical
  /// bit-exact behavior) or the count-min-sketch store (docs/SKETCH.md).
  /// Selected per run through DaemonConfig::driver.
  HotnessConfig hotness{};
  /// Streaming sample transport (docs/STREAMING.md).
  /// Off by default; `stream.enabled` gates construction, so disabled runs
  /// are bitwise unchanged. Requires the sharded engine and the exact
  /// hotness front-end (conservative-update sketches are add-order
  /// sensitive, which the pump's scheduling-dependent interleaving would
  /// expose).
  StreamConfig stream{};
};

/// Collects raw profiling data from the hardware monitor models.
class TmpDriver {
 public:
  TmpDriver(sim::System& system, const DriverConfig& config);
  TmpDriver(const TmpDriver&) = delete;
  TmpDriver& operator=(const TmpDriver&) = delete;
  ~TmpDriver();

  /// Pause/resume trace-based collection (activity gating actuator).
  void set_trace_enabled(bool enabled);

  /// Run one A-bit scan pass over the given processes; returns the summed
  /// scan statistics. Honors the paper's no-shootdown optimization via
  /// DriverConfig::abit.
  monitors::AbitScanResult scan_processes(const std::vector<mem::Pid>& pids);

  /// Close the current epoch: drain pending trace buffers and hand out the
  /// epoch's observations, then start a new epoch.
  EpochObservation end_epoch();

  /// Allocation-reusing form: swaps the finished epoch into `out` and
  /// adopts `out`'s previous buffers (cleared, capacity retained) as the
  /// new accumulators. Steady-state epochs reuse the same two buffer sets.
  void end_epoch_into(EpochObservation& out);

  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const PageStatsStore& store() const noexcept { return store_; }

  /// Modeled software overhead of collection so far (trace + scans).
  [[nodiscard]] util::SimNs overhead_ns() const noexcept;
  [[nodiscard]] util::SimNs trace_overhead_ns() const noexcept;
  [[nodiscard]] util::SimNs abit_overhead_ns() const noexcept {
    return scanner_.overhead_ns();
  }
  [[nodiscard]] std::uint64_t trace_samples_kept() const noexcept {
    return trace_samples_kept_;
  }
  /// Trace samples lost to injected buffer overflows (docs/ROBUSTNESS.md).
  [[nodiscard]] std::uint64_t trace_samples_dropped() const noexcept {
    return trace_samples_dropped_;
  }
  /// A-bit scan passes cut short by an injected mid-walk abort.
  [[nodiscard]] std::uint64_t scans_aborted() const noexcept {
    return scans_aborted_;
  }

  /// Wire the daemon's fault injector into the driver's fault sites
  /// (trace-buffer overflow, A-bit scan abort). Null disables injection.
  void set_fault_injector(util::FaultInjector* injector) noexcept {
    fault_ = injector;
  }

  /// Attach (or with null, detach) the telemetry sink: trace filter
  /// counters, A-bit scan counters + spans, and per-epoch monitor gauges
  /// (docs/OBSERVABILITY.md).
  void set_telemetry(telemetry::Telemetry* telemetry);

  /// The device-side monitor, if DriverConfig::devmon enabled it (null
  /// otherwise). Exposed for telemetry/tests; owned by the driver.
  [[nodiscard]] const monitors::DevMonitor* devmon() const noexcept {
    return devmon_.get();
  }

  /// Checkpoint hooks: monitor state, the descriptor store and the open
  /// epoch's observation maps. The backend
  /// configuration must match the constructed driver on load.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

  /// Device-monitor checkpoint state (counter arrays, lanes, the open
  /// epoch's translated page counts). Framed by the runner in its own
  /// "devmon" section; a presence mismatch throws CkptError("devmon", ...)
  /// so a resume with a different devmon config cold-starts.
  void save_devmon_state(util::ckpt::Writer& w) const;
  void load_devmon_state(util::ckpt::Reader& r);

  // --- streaming transport (docs/STREAMING.md) --------------------------

  /// Streaming checkpoint state (transport geometry, cumulative record and
  /// drop tallies, export baselines, lane seq cursors). Framed by the
  /// runner in its own "stream" section; presence/geometry mismatches
  /// throw CkptError("stream", ...) so a resume with a different stream
  /// config cold-starts.
  void save_stream_state(util::ckpt::Writer& w) const;
  void load_stream_state(util::ckpt::Reader& r);

 private:
  void on_trace(std::span<const monitors::TraceSample> samples);
  void on_pml(std::span<const mem::PhysAddr> addresses);
  void on_devmon(std::span<const monitors::DevMonReportEntry> report);
  /// Fold one stream record into the open epoch (main thread only).
  void consume_record(const monitors::StreamRecord& rec);
  /// Drain every lane's ring through consume_record. Runs opportunistically
  /// from the engine's step pump and exhaustively at the epoch seal.
  void pump_stream();

  sim::System& system_;
  DriverConfig config_;
  std::unique_ptr<monitors::IbsMonitor> ibs_;
  std::unique_ptr<monitors::PebsMonitor> pebs_;
  std::unique_ptr<monitors::PmlMonitor> pml_;
  std::unique_ptr<monitors::DevMonitor> devmon_;
  monitors::AbitScanner scanner_;
  PageStatsStore store_;
  /// The open epoch's per-source accumulators (HotnessStore-backed; exact
  /// mode reproduces the historical EpochObservation maps bit-for-bit).
  HotnessCounts cur_abit_;
  HotnessCounts cur_trace_;
  HotnessCounts cur_writes_;
  /// Open epoch's device-counter evidence, translated to page identity at
  /// each drain. Always exact: the reports are already top-K bounded.
  PageCountMap cur_devmon_;
  std::uint32_t epoch_ = 0;
  bool trace_enabled_ = false;
  std::uint64_t trace_samples_kept_ = 0;
  util::FaultInjector* fault_ = nullptr;  ///< not owned; may be null
  telemetry::Telemetry* telemetry_ = nullptr;  ///< not owned; may be null
  telemetry::Counter t_kept_;
  telemetry::Counter t_dropped_;
  telemetry::Counter t_scans_aborted_;
  telemetry::Counter t_abit_ptes_;
  telemetry::Counter t_abit_pages_;
  telemetry::Gauge t_mon_samples_;
  telemetry::Gauge t_mon_tags_lost_;
  telemetry::Gauge t_mon_interrupts_;
  telemetry::Gauge t_devmon_observed_;
  telemetry::Gauge t_devmon_reported_;
  telemetry::Gauge t_devmon_evictions_;
  std::vector<telemetry::Gauge> t_devmon_occupied_;  ///< per non-fast tier
  std::uint64_t trace_samples_dropped_ = 0;
  std::uint64_t scans_aborted_ = 0;
  /// Per-epoch occurrence index per page, so overflow-drop decisions are a
  /// pure function of (epoch, page, occurrence) — invariant to drain order.
  /// Always exact: fault bookkeeping must not inherit sketch error.
  PageCountMap overflow_seen_;
  /// Streaming transport (null unless DriverConfig::stream.enabled).
  std::unique_ptr<StreamTransport> stream_;
  std::uint64_t stream_records_ = 0;
  std::uint32_t abit_seq_ = 0;  ///< next A-bit lane record seq this epoch
  std::uint32_t dev_seq_ = 0;   ///< next DevMon lane record seq this epoch
  telemetry::Gauge t_stream_depth_;
  telemetry::Counter t_stream_drops_;
  telemetry::Gauge t_stream_seal_ns_;
  telemetry::Counter t_stream_records_;
  /// Counter baselines so per-epoch exports add deltas of the cumulative
  /// tallies (restored from checkpoints to keep exports monotone).
  std::uint64_t stream_drops_exported_ = 0;
  std::uint64_t stream_records_exported_ = 0;
};

}  // namespace tmprof::core
