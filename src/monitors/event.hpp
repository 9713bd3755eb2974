#pragma once
/// \file event.hpp
/// Microarchitectural event types that hardware monitors observe, and the
/// observer interface the access engine publishes them through. These model
/// the signals silicon exposes (retirement stream, load/store completion)
/// — a monitor sees nothing else.

#include "util/ckpt.hpp"
#include <cstdint>

#include "mem/addr.hpp"
#include "mem/cache.hpp"
#include "mem/tlb.hpp"
#include "util/time.hpp"

namespace tmprof::monitors {

/// One completed memory micro-op as visible to tagging hardware.
struct MemOpEvent {
  util::SimNs time = 0;
  std::uint32_t core = 0;
  mem::Pid pid = 0;
  std::uint64_t ip = 0;        ///< synthetic instruction pointer
  mem::VirtAddr vaddr = 0;
  mem::PhysAddr paddr = 0;
  bool is_store = false;
  mem::DataSource source = mem::DataSource::L1;
  mem::TlbHit tlb = mem::TlbHit::L1;
  mem::PageSize page_size = mem::PageSize::k4K;
};

/// Hardware-event observer. The engine invokes these inline with execution;
/// a monitor must therefore be cheap on the common path (that constraint is
/// the whole subject of the paper).
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;

  /// `uops` micro-ops retired on `core` (includes the memory op's uop).
  virtual void on_retire(std::uint32_t core, std::uint64_t uops,
                         util::SimNs now) {
    (void)core; (void)uops; (void)now;
  }

  /// A memory micro-op completed.
  virtual void on_mem_op(const MemOpEvent& event) { (void)event; }

  // --- sharded-engine protocol ------------------------------------------
  /// The sharded access engine replays each simulated core on its own
  /// thread. Before a parallel step it asks every observer for a per-core
  /// sink: an observer whose callbacks are safe to invoke from `core`'s
  /// worker thread (typically `this`, if all mutable state is per-core).
  /// The default, nullptr, marks a serial-engine-only observer:
  /// System::step_parallel rejects it.
  virtual AccessObserver* shard_sink(std::uint32_t core) {
    (void)core;
    return nullptr;
  }

  /// Epoch-barrier hook, called on the main thread after all shards have
  /// finished (observers are merged in registration order). Implementations
  /// fold per-core state into their global view in ascending core order so
  /// results are independent of the worker-thread count.
  virtual void merge_shards() {}
};

/// A decoded trace sample, common to the IBS and PEBS models. Field set
/// follows Section III-B1: timestamp, CPU, PID, IP, virtual and physical
/// data address, access type, and cache-miss status.
struct TraceSample {
  util::SimNs time = 0;
  std::uint32_t core = 0;
  mem::Pid pid = 0;
  std::uint64_t ip = 0;
  mem::VirtAddr vaddr = 0;
  mem::PhysAddr paddr = 0;
  bool is_store = false;
  mem::DataSource source = mem::DataSource::L1;
  bool tlb_miss = false;
};

/// TMP's trace filter: a sample counts only if it is a demand load served
/// beyond the LLC. The driver and every Section V figure apply this one
/// predicate, so the figures measure the profiler the policies rank.
[[nodiscard]] constexpr bool keeps_trace_sample(
    bool is_store, mem::DataSource source) noexcept {
  return !is_store && mem::is_memory(source);
}
[[nodiscard]] constexpr bool keeps_trace_sample(
    const TraceSample& sample) noexcept {
  return keeps_trace_sample(sample.is_store, sample.source);
}

// ---------------------------------------------------------------------------
// Streaming sample transport (docs/STREAMING.md)

/// Fixed-width trace-sample record carried by the per-core SPSC rings: the
/// subset of a TraceSample the driver's filter consumes (paddr, is_store,
/// source) plus the pid. (lane, seq) tag where and in what order the record
/// was produced — seq restarts at 0 each epoch, so a record's identity
/// within an epoch is the pure pair (lane, seq) regardless of when the
/// consumer gets to it.
struct StreamRecord {
  mem::PhysAddr paddr = 0;
  mem::Pid pid = 0;
  std::uint32_t seq = 0;
  std::uint16_t lane = 0;
  std::uint8_t flags = 0;  ///< kStreamFlagStore | source << 1
};

inline constexpr std::uint8_t kStreamFlagStore = 0x1;

/// Encode a sample as a ring record; time/ip/vaddr never survive
/// aggregation, so the wire record stays small.
[[nodiscard]] inline StreamRecord encode_trace_record(std::uint16_t lane,
                                                      std::uint32_t seq,
                                                      const TraceSample& s) {
  StreamRecord rec;
  rec.paddr = s.paddr;
  rec.pid = s.pid;
  rec.seq = seq;
  rec.lane = lane;
  rec.flags = static_cast<std::uint8_t>(
      (s.is_store ? kStreamFlagStore : 0) |
      (static_cast<std::uint8_t>(s.source) << 1));
  return rec;
}

[[nodiscard]] inline bool trace_record_is_store(
    const StreamRecord& rec) noexcept {
  return (rec.flags & kStreamFlagStore) != 0;
}
[[nodiscard]] inline mem::DataSource trace_record_source(
    const StreamRecord& rec) noexcept {
  return static_cast<mem::DataSource>(rec.flags >> 1);
}

/// Checkpoint round-trip for spilled stream records.
inline void save_stream_record(util::ckpt::Writer& w, const StreamRecord& rec) {
  w.put_u64(rec.paddr);
  w.put_u32(rec.pid);
  w.put_u32(rec.seq);
  w.put_u32(rec.lane);
  w.put_u8(rec.flags);
}

[[nodiscard]] inline StreamRecord load_stream_record(util::ckpt::Reader& r) {
  StreamRecord rec;
  rec.paddr = r.get_u64();
  rec.pid = r.get_u32();
  rec.seq = r.get_u32();
  rec.lane = static_cast<std::uint16_t>(r.get_u32());
  rec.flags = r.get_u8();
  return rec;
}

/// Checkpoint round-trip for buffered samples (util/ckpt.hpp).
inline void save_sample(util::ckpt::Writer& w, const TraceSample& s) {
  w.put_u64(s.time);
  w.put_u32(s.core);
  w.put_u64(s.pid);
  w.put_u64(s.ip);
  w.put_u64(s.vaddr);
  w.put_u64(s.paddr);
  w.put_bool(s.is_store);
  w.put_u8(static_cast<std::uint8_t>(s.source));
  w.put_bool(s.tlb_miss);
}

inline TraceSample load_sample(util::ckpt::Reader& r) {
  TraceSample s;
  s.time = r.get_u64();
  s.core = r.get_u32();
  s.pid = static_cast<mem::Pid>(r.get_u64());
  s.ip = r.get_u64();
  s.vaddr = r.get_u64();
  s.paddr = r.get_u64();
  s.is_store = r.get_bool();
  s.source = static_cast<mem::DataSource>(r.get_u8());
  s.tlb_miss = r.get_bool();
  return s;
}

}  // namespace tmprof::monitors
