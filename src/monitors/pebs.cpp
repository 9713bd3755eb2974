#include "monitors/pebs.hpp"

#include "mem/cache.hpp"
#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::monitors {

PebsMonitor::PebsMonitor(const PebsConfig& config, std::uint32_t cores)
    : TraceMonitor("pebs", cores,
                   TraceCosts{config.buffer_capacity, config.cost_per_record_ns,
                              config.cost_per_interrupt_ns}),
      config_(config),
      counters_(cores) {
  TMPROF_EXPECTS(config.sample_after >= 1);
}

void PebsMonitor::on_mem_op(const MemOpEvent& event) {
  if (!mem::is_memory(event.source)) return;  // hit in the cache hierarchy
  TMPROF_ASSERT(event.core < counters_.size());
  Counter& counter = counters_[event.core];
  ++(sharded() ? counter.events : events_seen_);
  if (++counter.count < config_.sample_after) return;
  counter.count = 0;
  take_sample(event);
}

std::uint64_t PebsMonitor::events_seen() const noexcept {
  std::uint64_t total = events_seen_;
  for (const Counter& counter : counters_) total += counter.events;
  return total;
}

// ---------------------------------------------------------------------------
// Checkpoint hooks

void PebsMonitor::save_trigger(util::ckpt::Writer& w,
                               std::uint32_t lane) const {
  if (lane != kWide) return;
  w.put_u32(static_cast<std::uint32_t>(counters_.size()));
  for (const Counter& counter : counters_) w.put_u64(counter.count);
}

void PebsMonitor::load_trigger(util::ckpt::Reader& r, std::uint32_t lane) {
  if (lane != kWide) return;
  if (r.get_u32() != counters_.size()) reject("core count mismatch");
  for (Counter& counter : counters_) counter.count = r.get_u64();
}

void PebsMonitor::save_tally(util::ckpt::Writer& w, std::uint32_t lane) const {
  w.put_u64(lane == kWide ? events_seen_ : counters_[lane].events);
}

void PebsMonitor::load_tally(util::ckpt::Reader& r, std::uint32_t lane) {
  (lane == kWide ? events_seen_ : counters_[lane].events) = r.get_u64();
}

}  // namespace tmprof::monitors
