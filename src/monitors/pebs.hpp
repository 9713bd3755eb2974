#pragma once
/// \file pebs.hpp
/// Intel Precise Event Based Sampling model. Unlike IBS (which tags the
/// retirement stream), PEBS arms on a chosen *event* — TMP uses LLC misses —
/// and the microcode assist writes a record for every Nth occurrence into a
/// designated memory buffer; crossing the buffer threshold raises a PMI.

#include <cstdint>
#include <vector>

#include "monitors/trace.hpp"
#include "util/time.hpp"

namespace tmprof::monitors {

/// The counter arms on TMP's event: a demand access that left the LLC.
struct PebsConfig {
  /// Record one out of this many qualifying events ("sample-after value").
  std::uint64_t sample_after = 1024;
  std::uint32_t buffer_capacity = 4096;
  /// PEBS assist is cheaper per record than an interrupt-per-sample design;
  /// the PMI on buffer threshold is the expensive part.
  util::SimNs cost_per_record_ns = 200;
  util::SimNs cost_per_interrupt_ns = 4000;
};

/// System-wide PEBS monitor: one sample-after counter per core in front of
/// the shared trace-sample transport.
class PebsMonitor final : public TraceMonitor {
 public:
  PebsMonitor(const PebsConfig& config, std::uint32_t cores);

  void on_mem_op(const MemOpEvent& event) override;

  [[nodiscard]] std::uint64_t events_seen() const noexcept;

 private:
  /// Per-core counter state, written on every qualifying op by the core's
  /// own thread in sharded mode; cache-line aligned so no two cores share
  /// a line.
  struct alignas(util::kCacheLine) Counter {
    std::uint64_t count = 0;   ///< qualifying events since the last sample
    std::uint64_t events = 0;  ///< sharded mode only
  };

  void save_trigger(util::ckpt::Writer& w, std::uint32_t lane) const override;
  void load_trigger(util::ckpt::Reader& r, std::uint32_t lane) override;
  void save_tally(util::ckpt::Writer& w, std::uint32_t lane) const override;
  void load_tally(util::ckpt::Reader& r, std::uint32_t lane) override;

  PebsConfig config_;
  std::uint64_t events_seen_ = 0;  ///< serial mode
  std::vector<Counter> counters_;
};

}  // namespace tmprof::monitors
