#pragma once
/// \file devmon.hpp
/// Device-side hotness monitor (the NeoMem idiom, PAPERS.md). Unlike the
/// core-pipeline profilers (IBS/PEBS sampling, A-bit scans, HWPC), a DevMon
/// sits at the memory controller of each *non-fastest* tier: it sees every
/// line fill its own device serves — no sampling sparsity — but is blind to
/// traffic absorbed by caches or served by other tiers. Each device keeps a
/// small bounded counter array (space-saving replacement, saturating
/// counters) over the physical frames it serves and reports its top-K
/// hottest frames when drained at the epoch barrier.
///
/// Determinism: events are tallied into per-core lanes (each shard thread
/// owns its lane exclusively) and folded into the shared device arrays only
/// on the main thread — at the epoch barrier in sharded mode, at drain() in
/// serial mode — in ascending core order, ascending PFN within a lane. The
/// report is therefore bitwise identical across engine thread counts.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mem/tiers.hpp"
#include "monitors/event.hpp"
#include "util/cache_line.hpp"
#include "util/flat_map.hpp"

namespace tmprof::monitors {

/// Saturation value of every device counter (16-bit HW counters).
inline constexpr std::uint32_t kDevMonCounterMax = 65535;

/// Geometry of every per-tier device counter array.
struct DevMonConfig {
  bool enabled = false;       ///< DriverConfig gate; the monitor itself
                              ///< only exists when enabled
  std::uint32_t slots = 256;  ///< counter entries per tier device
  std::uint32_t top_k = 64;   ///< hottest frames reported per drain
};

/// One row of a device's top-K report.
struct DevMonReportEntry {
  mem::Pfn pfn = 0;
  std::uint32_t count = 0;
  mem::TierId tier = 0;       ///< device (tier) that counted the frame
};

class DevMonitor final : public AccessObserver {
 public:
  using DrainFn = std::function<void(std::span<const DevMonReportEntry>)>;

  /// `phys` provides the static frame→tier geometry (which device a fill
  /// lands on); it must outlive the monitor. One lane per simulated core.
  DevMonitor(const DevMonConfig& config, const mem::PhysMemory& phys,
             std::uint32_t cores);

  /// Install the top-K report consumer (the TMP driver).
  void set_drain(DrainFn drain) { drain_ = std::move(drain); }

  /// Switch to sharded operation: lanes are already per-core, so this only
  /// opts into running on_mem_op from shard threads. Call before events.
  void enable_sharded() { sharded_ = true; }

  void on_mem_op(const MemOpEvent& event) override;

  AccessObserver* shard_sink(std::uint32_t /*core*/) override {
    return sharded_ ? this : nullptr;
  }
  void merge_shards() override { merge_lanes(); }

  /// Fold outstanding lane tallies into the device arrays, then emit each
  /// device's top-K report (count descending, PFN ascending on ties) via
  /// the drain callback and halve every counter (a counter halved to 0
  /// frees its slot). Called at the epoch horizon.
  void drain();

  /// Device accesses counted (line fills on non-fastest tiers).
  [[nodiscard]] std::uint64_t observed() const noexcept;
  /// Counter-slot replacements forced by full arrays.
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  /// Report entries emitted to the drain callback.
  [[nodiscard]] std::uint64_t reported() const noexcept { return reported_; }
  [[nodiscard]] std::uint64_t drains() const noexcept { return drains_; }
  /// Occupied counter slots on tier `tier`'s device (0 for the fast tier).
  [[nodiscard]] std::uint32_t occupied(mem::TierId tier) const;

  /// Checkpoint hooks (util/ckpt.hpp): device arrays, statistics, and any
  /// unmerged lane tallies. Geometry (slots, chain length, lane count) must
  /// match the constructed monitor or a CkptError("devmon", ...) is thrown.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  /// One entry of a device's bounded counter array.
  struct CounterSlot {
    mem::Pfn pfn = 0;
    std::uint32_t count = 0;
    bool used = false;
  };

  /// One device's counter array plus the indexes that make a fold cost
  /// O(log slots) instead of a scan: the space-saving "stream summary"
  /// layout. Only `slots` is state (checkpointed, reported); the rest is
  /// derived from it by reindex().
  struct Device {
    std::vector<CounterSlot> slots;
    /// pfn → slot for every used slot. An eviction leaves the victim's
    /// entry behind; it is stale (the slot holds another pfn) and fold()
    /// treats it as absent.
    util::FlatHashMap<std::uint64_t, std::uint32_t, util::U64Hash> where;
    std::vector<std::uint32_t> free;  ///< unused slots, ascending
    std::size_t next_free = 0;        ///< free[next_free..] still unused
    /// Used slots as a binary min-heap on (count, slot index): the root is
    /// the coldest slot, lowest index on ties — the eviction victim.
    std::vector<std::uint32_t> heap;
    std::vector<std::uint32_t> heap_pos;  ///< slot → its position in heap
  };

  /// Per-core tally a shard's worker thread owns exclusively; updated on
  /// every slower-tier access, so cache-line aligned.
  struct alignas(util::kCacheLine) CoreLane {
    util::FlatHashMap<std::uint64_t, std::uint32_t, util::U64Hash> counts;
    std::uint64_t observed = 0;
  };

  void merge_lanes();
  void fold(Device& device, mem::Pfn pfn, std::uint32_t add);
  /// Rebuild a device's indexes from its slots (after construction, the
  /// halving decay and load_state; halving can reorder ties).
  static void reindex(Device& device);
  static void sift_up(Device& device, std::size_t at);
  static void sift_down(Device& device, std::size_t at);

  DevMonConfig config_;
  const mem::PhysMemory* phys_;
  DrainFn drain_;
  bool sharded_ = false;
  std::vector<CoreLane> lanes_;
  /// Indexed by tier id; tier 0 (fastest) has no device counter array.
  std::vector<Device> devices_;
  std::vector<DevMonReportEntry> report_;  ///< drain scratch, capacity kept
  std::uint64_t observed_ = 0;             ///< merged-lane total
  std::uint64_t evictions_ = 0;
  std::uint64_t reported_ = 0;
  std::uint64_t drains_ = 0;
};

}  // namespace tmprof::monitors
