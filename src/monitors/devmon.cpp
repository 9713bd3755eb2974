#include "monitors/devmon.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::monitors {

namespace {

/// Heap order of two used slots: colder first, lower index on ties.
template <class Slots>
bool colder(const Slots& slots, std::uint32_t a, std::uint32_t b) {
  return slots[a].count != slots[b].count ? slots[a].count < slots[b].count
                                          : a < b;
}

}  // namespace

DevMonitor::DevMonitor(const DevMonConfig& config, const mem::PhysMemory& phys,
                       std::uint32_t cores)
    : config_(config), phys_(&phys) {
  TMPROF_EXPECTS(cores >= 1);
  TMPROF_EXPECTS(config.slots >= 1);
  TMPROF_EXPECTS(config.top_k >= 1);
  lanes_.resize(cores);
  devices_.resize(phys.tier_count());
  for (std::size_t t = 1; t < devices_.size(); ++t) {
    devices_[t].slots.resize(config_.slots);
    reindex(devices_[t]);
  }
  report_.reserve(config_.slots);
}

void DevMonitor::on_mem_op(const MemOpEvent& event) {
  if (!mem::is_memory(event.source)) return;
  const mem::Pfn pfn = mem::pfn_of(event.paddr);
  if (phys_->tier_of(pfn) == 0) return;  // fastest tier has no device counter
  CoreLane& lane = lanes_[event.core];
  ++lane.counts[pfn];
  ++lane.observed;
}

void DevMonitor::merge_lanes() {
  for (CoreLane& lane : lanes_) {
    observed_ += lane.observed;
    lane.observed = 0;
    if (lane.counts.empty()) continue;
    lane.counts.fold_sorted(
        [this](const std::uint64_t pfn, const std::uint32_t add) {
          // A frame's tier is static geometry, so the device a lane entry
          // belongs to is recoverable at the barrier.
          fold(devices_[phys_->tier_of(pfn)], pfn, add);
        });
    lane.counts.clear();
  }
}

void DevMonitor::fold(Device& device, mem::Pfn pfn, std::uint32_t add) {
  auto saturated = [this](std::uint32_t count, std::uint32_t more) {
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        std::uint64_t{count} + more, kDevMonCounterMax));
  };
  if (const auto it = device.where.find(pfn); it != device.where.end()) {
    const std::uint32_t i = it->second;
    CounterSlot& s = device.slots[i];
    if (s.used && s.pfn == pfn) {
      s.count = saturated(s.count, add);
      sift_down(device, device.heap_pos[i]);
      return;
    }
  }
  std::uint32_t i = 0;
  if (device.next_free < device.free.size()) {
    // A newcomer takes the lowest free slot.
    i = device.free[device.next_free++];
    CounterSlot& s = device.slots[i];
    s.used = true;
    s.pfn = pfn;
    s.count = std::min(add, kDevMonCounterMax);
    device.heap_pos[i] = static_cast<std::uint32_t>(device.heap.size());
    device.heap.push_back(i);
    sift_up(device, device.heap.size() - 1);
  } else {
    // Space-saving replacement: evict the coldest slot (ties → lowest
    // index) and let the newcomer inherit its count, bounding the
    // undercount.
    ++evictions_;
    i = device.heap.front();
    CounterSlot& s = device.slots[i];
    s.pfn = pfn;
    s.count = saturated(s.count, add);
    sift_down(device, 0);
  }
  device.where[pfn] = i;
  // Evictions leave stale entries behind; drop them once they outnumber
  // the live ones a few times over, so the index stays O(slots).
  if (device.where.size() > 4 * device.slots.size()) reindex(device);
}

void DevMonitor::reindex(Device& device) {
  const auto n = static_cast<std::uint32_t>(device.slots.size());
  device.where.clear();
  device.free.clear();
  device.next_free = 0;
  device.heap.clear();
  device.heap_pos.assign(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const CounterSlot& s = device.slots[i];
    if (s.used) {
      device.where.try_emplace(s.pfn, i);
      device.heap.push_back(i);
    } else {
      device.free.push_back(i);
    }
  }
  // Ascending (count, index) order is a valid min-heap.
  std::sort(device.heap.begin(), device.heap.end(),
            [&device](std::uint32_t a, std::uint32_t b) {
              return colder(device.slots, a, b);
            });
  for (std::size_t p = 0; p < device.heap.size(); ++p) {
    device.heap_pos[device.heap[p]] = static_cast<std::uint32_t>(p);
  }
}

void DevMonitor::sift_up(Device& device, std::size_t at) {
  std::vector<std::uint32_t>& heap = device.heap;
  const std::uint32_t slot = heap[at];
  while (at > 0) {
    const std::size_t parent = (at - 1) / 2;
    if (!colder(device.slots, slot, heap[parent])) break;
    heap[at] = heap[parent];
    device.heap_pos[heap[at]] = static_cast<std::uint32_t>(at);
    at = parent;
  }
  heap[at] = slot;
  device.heap_pos[slot] = static_cast<std::uint32_t>(at);
}

void DevMonitor::sift_down(Device& device, std::size_t at) {
  std::vector<std::uint32_t>& heap = device.heap;
  const std::size_t n = heap.size();
  const std::uint32_t slot = heap[at];
  for (;;) {
    std::size_t child = 2 * at + 1;
    if (child >= n) break;
    if (child + 1 < n && colder(device.slots, heap[child + 1], heap[child])) {
      ++child;
    }
    if (!colder(device.slots, heap[child], slot)) break;
    heap[at] = heap[child];
    device.heap_pos[heap[at]] = static_cast<std::uint32_t>(at);
    at = child;
  }
  heap[at] = slot;
  device.heap_pos[slot] = static_cast<std::uint32_t>(at);
}

void DevMonitor::drain() {
  merge_lanes();
  ++drains_;
  for (std::size_t t = 1; t < devices_.size(); ++t) {
    Device& device = devices_[t];
    report_.clear();
    for (const CounterSlot& s : device.slots) {
      if (s.used) {
        report_.push_back(DevMonReportEntry{
            s.pfn, s.count, static_cast<mem::TierId>(t)});
      }
    }
    if (!report_.empty()) {
      std::sort(report_.begin(), report_.end(),
                [](const DevMonReportEntry& a, const DevMonReportEntry& b) {
                  if (a.count != b.count) return a.count > b.count;
                  return a.pfn < b.pfn;
                });
      if (report_.size() > config_.top_k) report_.resize(config_.top_k);
      reported_ += report_.size();
      if (drain_) drain_(std::span<const DevMonReportEntry>(report_));
    }
    for (CounterSlot& s : device.slots) {
      if (!s.used) continue;
      s.count >>= 1;
      if (s.count == 0) s.used = false;
    }
    reindex(device);
  }
}

std::uint64_t DevMonitor::observed() const noexcept {
  std::uint64_t total = observed_;
  for (const CoreLane& lane : lanes_) total += lane.observed;
  return total;
}

std::uint32_t DevMonitor::occupied(mem::TierId tier) const {
  if (tier >= devices_.size()) return 0;
  return static_cast<std::uint32_t>(devices_[tier].heap.size());
}

// ---------------------------------------------------------------------------
// Checkpoint hooks

void DevMonitor::save_state(util::ckpt::Writer& w) const {
  w.put_u32(config_.slots);
  w.put_u32(config_.top_k);
  w.put_u64(devices_.size());
  for (std::size_t t = 1; t < devices_.size(); ++t) {
    for (const CounterSlot& s : devices_[t].slots) {
      w.put_bool(s.used);
      w.put_u64(s.pfn);
      w.put_u32(s.count);
    }
  }
  w.put_u64(observed_);
  w.put_u64(evictions_);
  w.put_u64(reported_);
  w.put_u64(drains_);
  w.put_u64(lanes_.size());
  for (const CoreLane& lane : lanes_) {
    w.put_u64(lane.observed);
    w.put_u64(lane.counts.size());
    lane.counts.fold_sorted(
        [&w](const std::uint64_t pfn, const std::uint32_t count) {
          w.put_u64(pfn);
          w.put_u32(count);
        });
  }
}

void DevMonitor::load_state(util::ckpt::Reader& r) {
  const std::uint32_t slots = r.get_u32();
  const std::uint32_t top_k = r.get_u32();
  if (slots != config_.slots || top_k != config_.top_k) {
    throw util::ckpt::CkptError("devmon", "device-monitor config mismatch");
  }
  if (r.get_u64() != devices_.size()) {
    throw util::ckpt::CkptError("devmon", "tier-chain length mismatch");
  }
  for (std::size_t t = 1; t < devices_.size(); ++t) {
    for (CounterSlot& s : devices_[t].slots) {
      s.used = r.get_bool();
      s.pfn = r.get_u64();
      s.count = r.get_u32();
    }
    reindex(devices_[t]);
  }
  observed_ = r.get_u64();
  evictions_ = r.get_u64();
  reported_ = r.get_u64();
  drains_ = r.get_u64();
  if (r.get_u64() != lanes_.size()) {
    throw util::ckpt::CkptError("devmon", "core-lane count mismatch");
  }
  for (CoreLane& lane : lanes_) {
    lane.observed = r.get_u64();
    lane.counts.clear();
    const std::uint64_t n = r.get_u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t pfn = r.get_u64();
      lane.counts[pfn] = r.get_u32();
    }
  }
}

}  // namespace tmprof::monitors
