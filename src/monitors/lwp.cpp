#include "monitors/lwp.hpp"

#include "util/assert.hpp"

namespace tmprof::monitors {

/// Records in a ring when the process is signalled to drain it.
constexpr auto kInterruptRecords = static_cast<std::size_t>(
    kLwpInterruptFillFraction * static_cast<double>(kLwpRingCapacity));
static_assert(kInterruptRecords >= 1 && kInterruptRecords <= kLwpRingCapacity);

LwpMonitor::LwpMonitor(const LwpConfig& config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  TMPROF_EXPECTS(config.sample_period >= 1);
}

void LwpMonitor::reload(Ring& ring) {
  // Like IBS, randomize slightly to avoid loop lock-step.
  const std::uint64_t jitter = config_.sample_period / 16 + 1;
  ring.countdown = static_cast<std::int64_t>(
      config_.sample_period - jitter / 2 + rng_.below(jitter));
  if (ring.countdown < 1) ring.countdown = 1;
}

void LwpMonitor::enable_process(mem::Pid pid) {
  Ring& ring = rings_[pid];
  ring.records.reserve(kInterruptRecords);
  reload(ring);
}

void LwpMonitor::on_mem_op(const MemOpEvent& event) {
  const auto it = rings_.find(event.pid);
  if (it == rings_.end()) return;  // LWP monitors only enabled user code
  Ring& ring = it->second;
  if (--ring.countdown > 0) return;
  reload(ring);
  TraceSample sample;
  sample.time = event.time;
  sample.core = event.core;
  sample.pid = event.pid;
  sample.ip = event.ip;
  sample.vaddr = event.vaddr;
  sample.paddr = event.paddr;
  sample.is_store = event.is_store;
  sample.source = event.source;
  sample.tlb_miss = event.tlb == mem::TlbHit::Miss;
  ring.records.push_back(sample);
  ++records_taken_;
  if (ring.records.size() >= kInterruptRecords) {
    ++signals_;
    drain(event.pid);
  }
}

void LwpMonitor::drain(mem::Pid pid) {
  const auto it = rings_.find(pid);
  if (it == rings_.end() || it->second.records.empty()) return;
  records_drained_ += it->second.records.size();
  if (drain_) {
    drain_(pid, std::span<const TraceSample>(it->second.records));
  }
  it->second.records.clear();
}

void LwpMonitor::drain_all() {
  for (auto& [pid, ring] : rings_) {
    (void)ring;
    drain(pid);
  }
}

util::SimNs LwpMonitor::overhead_ns() const noexcept {
  return records_drained_ * kLwpCostPerDrainedRecordNs +
         signals_ * kLwpCostPerSignalNs;
}

}  // namespace tmprof::monitors
