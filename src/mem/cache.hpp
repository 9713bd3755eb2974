#pragma once
/// \file cache.hpp
/// Set-associative cache hierarchy (L1D, L2 per core; shared LLC), plus a
/// simple next-line prefetcher. The hierarchy determines each access's
/// *data source*, which the IBS/PEBS models record: TMP only counts trace
/// samples whose data source is beyond the LLC (Section III-A).

#include <cstdint>
#include <vector>

#include "mem/addr.hpp"
#include "util/cache_line.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::mem {

/// Where a load/store was serviced from.
enum class DataSource : std::uint8_t { L1, L2, LLC, MemTier1, MemTier2 };

[[nodiscard]] constexpr bool is_memory(DataSource src) noexcept {
  return src == DataSource::MemTier1 || src == DataSource::MemTier2;
}

/// One set-associative, write-allocate cache level with LRU replacement.
/// Tags are physical line addresses.
///
/// Victim rule: a fill takes the first invalid way of the set, or else the
/// first way with the strictly smallest LRU stamp.
///
/// Every probe writes the LRU clock, and sharded cores probe their own
/// levels concurrently, so each level owns its host cache lines.
class alignas(util::kCacheLine) CacheLevel {
 public:
  CacheLevel(std::uint64_t size_bytes, std::uint32_t ways);

  /// Outcome of probe(): whether the line hit and, on a miss, the victim
  /// way a fill of that line would use.
  struct Probe {
    bool hit = false;
    std::uint32_t victim = 0;  ///< way index within the set (miss only)
  };

  /// One scan of the line's set. A hit updates LRU and the dirty bit
  /// exactly like access(). A miss changes nothing and names the victim per
  /// the rule above.
  ///
  /// Probe→install contract: a miss probe stays valid for install() of the
  /// same line until this level's set is next modified (any access hit,
  /// fill, install, flush or load_state on this level). Probing or filling
  /// *other* levels in between is fine.
  Probe probe(PhysAddr paddr, bool is_store);

  /// Install the line into the way a miss probe() named; same effects and
  /// return value as fill() of a line that is not resident.
  bool install(PhysAddr paddr, Probe miss);

  /// True if the line holding `paddr` is resident (updates LRU).
  bool access(PhysAddr paddr, bool is_store) {
    return probe(paddr, is_store).hit;
  }

  /// Install the line; returns true if a valid line was evicted.
  bool fill(PhysAddr paddr);

  /// Prefetch fill: one scan that installs the line unless it is already
  /// resident, stopping at the first invalid way like fill(). Returns true
  /// if the line was installed.
  bool fill_if_absent(PhysAddr paddr);

  /// Is the line present (no LRU update)? Used by tests.
  [[nodiscard]] bool contains(PhysAddr paddr) const;

  void flush();

  /// Checkpoint hooks (util/ckpt.hpp): geometry comes from config, so only
  /// dynamic state (LRU clock, way contents) is serialized.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

  [[nodiscard]] std::uint64_t size_bytes() const noexcept {
    return static_cast<std::uint64_t>(sets_) * ways_ * kLineSize;
  }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::uint32_t sets() const noexcept { return sets_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  [[nodiscard]] std::size_t set_of(std::uint64_t line) const noexcept {
    return static_cast<std::size_t>(line & (sets_ - 1));
  }
  [[nodiscard]] Way* set_base(std::uint64_t line) noexcept {
    return &ways_storage_[set_of(line) * ways_];
  }
  /// fill()'s scan: the resident way's match ends it with nullptr, the
  /// first invalid way ends it as the victim, else the first LRU minimum.
  [[nodiscard]] Way* fill_victim(std::uint64_t line) noexcept;
  bool install_way(Way& victim, std::uint64_t line);

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint64_t tick_ = 0;
  std::vector<Way> ways_storage_;
};

/// Result of a full hierarchy access.
struct CacheAccess {
  DataSource source = DataSource::L1;  ///< MemTier resolved by caller
  bool llc_miss = false;
  bool prefetch_issued = false;
};

/// Per-core private levels; the shared LLC is passed in by the System.
class CacheHierarchy {
 public:
  /// \param l1_bytes/l2_bytes  private level sizes
  /// \param llc                shared last-level cache (not owned)
  CacheHierarchy(std::uint64_t l1_bytes, std::uint32_t l1_ways,
                 std::uint64_t l2_bytes, std::uint32_t l2_ways,
                 CacheLevel* llc);

  /// Zen-2-like geometry: 32 KiB/8w L1D, 512 KiB/8w L2.
  static CacheHierarchy make_default(CacheLevel* llc);

  /// Run one demand access through L1 → L2 → LLC. On an LLC miss the line is
  /// filled into all levels and the next line is prefetched into the LLC
  /// (so a subsequent demand access to it is an LLC *hit* — this is why
  /// TMP deliberately profiles demand loads only).
  CacheAccess access(PhysAddr paddr, bool is_store);

  void flush();

  /// Checkpoint hooks. The shared LLC is serialized by its owner (System),
  /// not here.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  CacheLevel l1_;
  CacheLevel l2_;
  CacheLevel* llc_;
  std::uint64_t last_demand_line_ = ~0ULL;
};

}  // namespace tmprof::mem
