#pragma once
/// \file ring.hpp
/// Bounded lock-free single-producer/single-consumer ring buffer — the
/// per-lane transport of the streaming sample path (docs/STREAMING.md).
///
/// One thread pushes, one thread pops; no other concurrency is supported.
/// Capacity is a fixed power of two so the cursors can run free and index
/// by mask. The producer publishes a slot with a release store of `tail_`,
/// the consumer acquires it before reading, so a popped record's payload —
/// and everything the producer wrote before pushing it — is visible to the
/// consumer without any lock.
///
/// A push into a full ring fails and is *counted* (`drops()`), never
/// blocked: the caller decides what an overflow means. The streaming
/// transport spills such records to a lane-local buffer that drains at the
/// epoch seal, so profiling evidence is never lost to consumer scheduling
/// (that would break thread-count invariance); the drop counter still
/// records how often the ring back-pressured.

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/cache_line.hpp"

namespace tmprof::util {

template <typename T>
class SpscRing {
 public:
  /// `capacity` must be a power of two >= 2. Slots are default-constructed
  /// up front; push copies into a slot, pop copies out.
  explicit SpscRing(std::uint32_t capacity)
      : slots_(capacity), mask_(capacity - 1) {
    TMPROF_EXPECTS(capacity >= 2);
    TMPROF_EXPECTS((capacity & (capacity - 1)) == 0);
  }
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return static_cast<std::uint32_t>(slots_.size());
  }

  /// Producer: append `value`. Returns false — and counts a drop — when the
  /// ring is full. Also maintains the occupancy high-water mark.
  bool try_push(const T& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t used = tail - head;
    if (used == slots_.size()) {
      drops_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    const std::uint64_t depth = used + 1;
    if (depth > high_water_.load(std::memory_order_relaxed)) {
      high_water_.store(depth, std::memory_order_relaxed);
    }
    return true;
  }

  /// Consumer: remove the oldest record into `out`; false when empty.
  bool pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    out = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer: pop every record visible at entry, invoking `fn(record)` in
  /// FIFO order; returns how many were consumed. Draining an empty ring is
  /// a no-op (idempotent), so seal paths may call it repeatedly.
  template <typename Fn>
  std::size_t drain(Fn&& fn) {
    std::size_t n = 0;
    T record;
    while (pop(record)) {
      fn(static_cast<const T&>(record));
      ++n;
    }
    return n;
  }

  /// Approximate occupancy. Exact when the other side is quiescent (the
  /// only time the transport reads it).
  [[nodiscard]] std::uint64_t size() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Failed pushes since construction (or the last reset_stats()).
  [[nodiscard]] std::uint64_t drops() const noexcept {
    return drops_.load(std::memory_order_relaxed);
  }
  /// Records ever pushed successfully (producer cursor).
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return tail_.load(std::memory_order_acquire);
  }
  /// Deepest occupancy a push has observed since the last reset_stats().
  [[nodiscard]] std::uint64_t high_water() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }

  /// Clear just the high-water mark (per-epoch depth gauge); the drop
  /// tally stays cumulative. Call only while the producer is quiescent.
  void reset_high_water() noexcept {
    high_water_.store(0, std::memory_order_relaxed);
  }

  /// Clear the drop tally and high-water mark (epoch-seal bookkeeping).
  /// Call only while both sides are quiescent.
  void reset_stats() noexcept {
    drops_.store(0, std::memory_order_relaxed);
    high_water_.store(0, std::memory_order_relaxed);
  }

 private:
  std::vector<T> slots_;
  std::uint64_t mask_;
  /// Cursors on separate cache lines so producer and consumer don't
  /// false-share; each grows monotonically and indexes via `mask_`.
  /// Consumer cursor.
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};
  /// Producer cursor.
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> high_water_{0};
};

}  // namespace tmprof::util
