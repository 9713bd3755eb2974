#pragma once
/// \file counters.hpp
/// Performance Monitoring Unit model. Ground-truth event streams always
/// increment the *true* counters; what software can *observe* goes through
/// a fixed set of programmable registers. program() accepts at most one
/// event per register, so every programmed event counts exactly.

#include <array>
#include <cstdint>
#include <vector>

#include "pmu/events.hpp"
#include "telemetry/metrics.hpp"
#include "util/cache_line.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::pmu {

/// One core's PMU. Cache-line aligned and allocation-free: the sharded
/// engine's workers record into neighbouring cores' PMUs at once, so no two
/// cores' counters may share a line.
class alignas(util::kCacheLine) PmuCore {
 public:
  /// Simultaneously countable events (6 on the paper's Zen 2 part).
  static constexpr std::size_t kRegisters = 6;

  PmuCore() { clear_slots(); }

  /// Hardware side: record `n` occurrences of `e`.
  /// Inline and O(1): the access path records several events per op.
  void record(Event e, std::uint64_t n = 1) {
    at(true_, e) += n;
    if (Observation* obs = find(e); obs != nullptr) obs->raw += n;
  }

  /// Software side: program the set of events to observe (at most
  /// kRegisters, no duplicates). Re-programming resets observation state
  /// but not the true counts.
  void program(std::vector<Event> events);

  /// Observed count of an event since it was programmed. Events that were
  /// never programmed read as 0 — software is blind to them, however large
  /// their true count.
  [[nodiscard]] std::uint64_t read(Event e) const {
    const Observation* obs = find(e);
    return obs == nullptr ? 0 : obs->raw;
  }

  /// Ground truth, for tests/oracles only (real software has no such MSR).
  [[nodiscard]] std::uint64_t truth(Event e) const noexcept {
    return at(true_, e);
  }

  /// Checkpoint hooks: true counters and the programmed set round-trip
  /// (util/ckpt.hpp).
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  struct Observation {
    Event event = Event::RetiredUops;
    std::uint64_t raw = 0;  ///< occurrences since programming
  };

  [[nodiscard]] Observation* find(Event e) {
    const std::int16_t slot = slot_[static_cast<std::size_t>(e)];
    return slot == kNoSlot ? nullptr
                           : &programmed_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] const Observation* find(Event e) const {
    const std::int16_t slot = slot_[static_cast<std::size_t>(e)];
    return slot == kNoSlot ? nullptr
                           : &programmed_[static_cast<std::size_t>(slot)];
  }
  void clear_slots() noexcept { slot_.fill(kNoSlot); }

  static constexpr std::int16_t kNoSlot = -1;

  EventCounts true_{};
  std::array<Observation, kRegisters> programmed_{};
  std::size_t programmed_count_ = 0;
  /// Event → index into programmed_ (kNoSlot if not programmed). Derived
  /// from programmed_, so not checkpointed.
  std::array<std::int16_t, kEventCount> slot_{};
};

/// System-wide PMU: one PmuCore per core plus convenience aggregation.
class Pmu {
 public:
  explicit Pmu(std::uint32_t cores);

  [[nodiscard]] PmuCore& core(std::uint32_t idx);

  void program_all(const std::vector<Event>& events);

  /// Sum of observed counts across cores. Each call models one software
  /// MSR-read sweep and is counted in telemetry (`pmu_reads_total`).
  [[nodiscard]] std::uint64_t read_total(Event e) const;
  /// Sum of true counts across cores (oracle view; not a software read).
  [[nodiscard]] std::uint64_t truth_total(Event e) const;

  /// Attach telemetry counters (null detaches; docs/OBSERVABILITY.md).
  void set_telemetry_counter(telemetry::Counter reads) noexcept {
    reads_ = reads;
  }

  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  std::vector<PmuCore> cores_;
  telemetry::Counter reads_;
};

}  // namespace tmprof::pmu
