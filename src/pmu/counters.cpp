#include "pmu/counters.hpp"

#include <string>

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::pmu {

void PmuCore::program(std::vector<Event> events) {
  TMPROF_EXPECTS(events.size() <= kRegisters);
  clear_slots();
  programmed_count_ = 0;
  for (Event e : events) {
    TMPROF_EXPECTS(find(e) == nullptr);  // no duplicate programming
    slot_[static_cast<std::size_t>(e)] =
        static_cast<std::int16_t>(programmed_count_);
    programmed_[programmed_count_++] = Observation{e, 0};
  }
}

Pmu::Pmu(std::uint32_t cores) : cores_(cores) {
  TMPROF_EXPECTS(cores >= 1);
}

PmuCore& Pmu::core(std::uint32_t idx) {
  TMPROF_EXPECTS(idx < cores_.size());
  return cores_[idx];
}

void Pmu::program_all(const std::vector<Event>& events) {
  for (auto& core : cores_) core.program(events);
}

std::uint64_t Pmu::read_total(Event e) const {
  reads_.inc();
  std::uint64_t sum = 0;
  for (const auto& core : cores_) sum += core.read(e);
  return sum;
}

std::uint64_t Pmu::truth_total(Event e) const {
  std::uint64_t sum = 0;
  for (const auto& core : cores_) sum += core.truth(e);
  return sum;
}


// ---------------------------------------------------------------------------
// Checkpoint hooks

void PmuCore::save_state(util::ckpt::Writer& w) const {
  for (const std::uint64_t count : true_) w.put_u64(count);
  w.put_u64(programmed_count_);
  for (std::size_t i = 0; i < programmed_count_; ++i) {
    const Observation& obs = programmed_[i];
    w.put_u8(static_cast<std::uint8_t>(obs.event));
    w.put_u64(obs.raw);
  }
}

void PmuCore::load_state(util::ckpt::Reader& r) {
  for (std::uint64_t& count : true_) count = r.get_u64();
  const std::uint64_t n_programmed = r.get_u64();
  if (n_programmed > kRegisters) {
    throw util::ckpt::CkptError(
        "pmu", "programmed event count " + std::to_string(n_programmed) +
                   " exceeds the " + std::to_string(kRegisters) +
                   " registers");
  }
  programmed_count_ = static_cast<std::size_t>(n_programmed);
  clear_slots();
  for (std::size_t i = 0; i < programmed_count_; ++i) {
    Observation& obs = programmed_[i];
    const std::uint8_t e = r.get_u8();
    if (e >= kEventCount) {
      throw util::ckpt::CkptError("pmu", "unknown event id " +
                                             std::to_string(e));
    }
    if (slot_[e] != kNoSlot) {
      throw util::ckpt::CkptError(
          "pmu", "event " + std::string(event_name(static_cast<Event>(e))) +
                     " programmed twice");
    }
    slot_[e] = static_cast<std::int16_t>(i);
    obs.event = static_cast<Event>(e);
    obs.raw = r.get_u64();
  }
}

void Pmu::save_state(util::ckpt::Writer& w) const {
  w.put_u32(static_cast<std::uint32_t>(cores_.size()));
  for (const PmuCore& core : cores_) core.save_state(w);
}

void Pmu::load_state(util::ckpt::Reader& r) {
  const std::uint32_t n = r.get_u32();
  if (n != cores_.size()) {
    throw util::ckpt::CkptError("pmu", "core count mismatch: checkpoint has " +
                                           std::to_string(n));
  }
  for (PmuCore& core : cores_) core.load_state(r);
}

}  // namespace tmprof::pmu
