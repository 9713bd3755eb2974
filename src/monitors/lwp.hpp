#pragma once
/// \file lwp.hpp
/// AMD Lightweight Profiling model (Section II-B). LWP differs from IBS in
/// that the hardware writes event records into a ring buffer *in the
/// address space of the running process* and only interrupts when the
/// buffer fills beyond a user-configured threshold; the OS then signals
/// the process to empty its own buffer. Records are therefore batched much
/// more aggressively than IBS's kernel-buffer design, at the cost of
/// per-process buffers and user-mode-only event coverage.

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "monitors/event.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace tmprof::monitors {

/// Ring-buffer capacity per process, in records.
inline constexpr std::uint32_t kLwpRingCapacity = 8192;
/// Interrupt threshold as a fraction of the ring (the "user-specified
/// threshold" of the spec). Below 1, so the ring is drained before it fills
/// and no record is lost.
inline constexpr double kLwpInterruptFillFraction = 0.75;
/// Cost model: hardware insert is nearly free; the signal + user-mode drain
/// loop costs per record drained plus a fixed signal cost.
inline constexpr util::SimNs kLwpCostPerDrainedRecordNs = 60;
inline constexpr util::SimNs kLwpCostPerSignalNs = 6000;

struct LwpConfig {
  /// Record one out of this many retired events (LWPVAL-like interval).
  std::uint64_t sample_period = 4096;
};

/// Per-process LWP: one ring buffer per PID, as the hardware extension
/// defines (records land in the profiled process's own address space).
class LwpMonitor final : public AccessObserver {
 public:
  /// Called when a process's ring crosses the threshold: the OS signals
  /// the process, which drains its own ring.
  using DrainFn =
      std::function<void(mem::Pid, std::span<const TraceSample>)>;

  explicit LwpMonitor(const LwpConfig& config, std::uint64_t seed = 0x11f);

  void set_drain(DrainFn drain) { drain_ = std::move(drain); }

  /// Enable profiling for a process (allocates its ring).
  void enable_process(mem::Pid pid);
  [[nodiscard]] bool enabled(mem::Pid pid) const noexcept {
    return rings_.count(pid) != 0;
  }

  void on_mem_op(const MemOpEvent& event) override;

  /// Force-drain a process's ring (e.g., at epoch end).
  void drain(mem::Pid pid);
  void drain_all();

  [[nodiscard]] std::uint64_t records_taken() const noexcept {
    return records_taken_;
  }
  [[nodiscard]] std::uint64_t signals() const noexcept { return signals_; }
  [[nodiscard]] util::SimNs overhead_ns() const noexcept;

 private:
  struct Ring {
    std::vector<TraceSample> records;
    std::int64_t countdown = 0;
  };

  void reload(Ring& ring);

  LwpConfig config_;
  DrainFn drain_;
  util::Rng rng_;
  std::unordered_map<mem::Pid, Ring> rings_;
  std::uint64_t records_taken_ = 0;
  std::uint64_t records_drained_ = 0;
  std::uint64_t signals_ = 0;
};

}  // namespace tmprof::monitors
