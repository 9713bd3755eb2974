#pragma once
/// \file stream.hpp
/// Lock-free streaming sample transport (docs/STREAMING.md). Replaces the
/// epoch-barrier swap-and-clear handoff between the per-core trace monitor
/// and the driver: each core's lane owns a bounded SPSC ring of
/// sequence-numbered StreamRecords, and the driver consumes them on the
/// main thread — while worker shards are still executing — folding each
/// record into the open epoch's observation maps. By the time the epoch
/// barrier arrives, the merge work is already done and the barrier shrinks
/// to a drain-and-seal; the ranking is then built from the sealed maps,
/// exactly as on the barrier path.
///
/// Determinism: per-lane record content is a pure function of the
/// simulation (PR-1 per-core RNG streams), count folds commute, and the
/// streaming fault key is (epoch, lane, seq) — so the sealed maps are
/// bitwise identical no matter how production and consumption interleave.
/// Ring overflow spills to a lane-local buffer instead of losing the
/// record (a timing-dependent loss would break thread-count invariance);
/// only the drop *counters* vary with scheduling.

#include <cstdint>
#include <memory>
#include <vector>

#include "monitors/event.hpp"
#include "util/ring.hpp"

namespace tmprof::core {

/// Streaming-transport knobs, selected per run via DriverConfig::stream.
/// Disabled by default: every golden was recorded with the barrier path,
/// and `enabled = false` keeps it bitwise unchanged.
struct StreamConfig {
  bool enabled = false;
  /// Per-lane ring capacity in records; must be a power of two >= 2. Full
  /// rings spill (counted, never lossy) until the consumer catches up.
  std::uint32_t ring_capacity = 1024;
};

/// The per-lane ring set: one SPSC ring per simulated core, whose
/// producer is that core's worker thread. Trace samples are the only
/// evidence produced off the main thread; the A-bit scan and the DevMon
/// report run on the consumer's own thread and fold into the open epoch
/// directly.
class StreamTransport {
 public:
  using Ring = util::SpscRing<monitors::StreamRecord>;

  StreamTransport(const StreamConfig& config, std::uint32_t cores);

  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint32_t lanes() const noexcept {
    return static_cast<std::uint32_t>(rings_.size());
  }
  [[nodiscard]] Ring& ring(std::uint32_t lane) { return *rings_[lane]; }

  /// Ring-full events since construction or checkpoint restore (records
  /// that took the spill path; no evidence is lost). Scheduling-dependent:
  /// telemetry only, never part of the determinism bar.
  [[nodiscard]] std::uint64_t drops_total() const noexcept;
  /// Deepest per-lane occupancy since the last reset_high_water().
  [[nodiscard]] std::uint64_t high_water() const noexcept;
  void reset_high_water() noexcept;

  /// Restore the drop tally carried from a checkpoint (rings restart empty
  /// and at zero; the carried base keeps the exported total monotone).
  void set_carried_drops(std::uint64_t drops) noexcept {
    carried_drops_ = drops;
  }

 private:
  StreamConfig config_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::uint64_t carried_drops_ = 0;
};

}  // namespace tmprof::core
