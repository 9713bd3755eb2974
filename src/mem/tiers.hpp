#pragma once
/// \file tiers.hpp
/// Tiered physical memory: a contiguous physical frame space partitioned
/// into tiers (tier 1 = fast DRAM, tier 2 = slow NVM). Owns the frame
/// allocator and the frame → (pid, vaddr) reverse map that the TMP driver's
/// phys_to_page() analog and the page mover rely on.
///
/// Each tier can optionally be split into N *arenas* — disjoint frame
/// ranges with independent bump pointers and free lists, analogous to the
/// kernel's per-CPU page allocator caches. The sharded access engine gives
/// every simulated core its own arena, so concurrent first-touch faults on
/// different cores allocate race-free and the PFN handed to a given
/// (core, fault sequence) is a pure function of that shard's history —
/// independent of how many OS threads replay the shards.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/addr.hpp"
#include "util/cache_line.hpp"
#include "util/time.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::mem {

/// Index of a memory tier; 0 is the fastest.
using TierId = std::uint8_t;

/// Static description of one tier.
struct TierSpec {
  std::string name;
  std::uint64_t frames = 0;          ///< capacity in 4 KiB frames
  util::SimNs read_latency_ns = 0;   ///< loaded access latency
  util::SimNs write_latency_ns = 0;
  /// Per-cache-line bandwidth term charged on every access that reaches
  /// this tier's device (~64 B / device GB/s). 0 (default) models an
  /// unconstrained link and keeps pre-chain behavior bitwise.
  util::SimNs line_transfer_ns = 0;
};

/// Largest tier-chain length the simulator supports. Per-process fill
/// accounting uses fixed arrays of this size so the epoch hot path stays
/// allocation-free regardless of chain depth.
inline constexpr std::size_t kMaxTiers = 8;

/// Per-frame ownership record (the simulator's struct page).
struct FrameInfo {
  Pid pid = 0;
  VirtAddr page_va = 0;      ///< base VA of the mapping using this frame
  PageSize size = PageSize::k4K;
  bool allocated = false;
  bool head = false;         ///< head frame of a (possibly huge) allocation
};

/// Physical memory across all tiers.
///
/// 4 KiB frames are handed out from the bottom of each arena and 2 MiB
/// chunks from the top; the two regions never interleave, which keeps huge
/// allocations contiguous without a buddy allocator.
class PhysMemory {
 public:
  /// \param arenas  per-tier arena count (1 = the classic single allocator).
  explicit PhysMemory(std::vector<TierSpec> tiers, std::uint32_t arenas = 1);

  [[nodiscard]] std::size_t tier_count() const noexcept {
    return tiers_.size();
  }
  [[nodiscard]] const TierSpec& tier(TierId id) const;
  [[nodiscard]] std::uint64_t total_frames() const noexcept {
    return total_frames_;
  }
  [[nodiscard]] std::uint32_t arenas() const noexcept { return arenas_; }

  /// Which tier a frame belongs to.
  [[nodiscard]] TierId tier_of(Pfn pfn) const;

  /// Allocate a page of `size` from the fastest tier with room, falling
  /// back down the chain (first-touch behavior). Returns the head PFN,
  /// or nullopt if all tiers are exhausted. With multiple arenas only the
  /// given arena of each tier is considered (keeps parallel faults
  /// race-free and deterministic); callers pick the arena by core.
  std::optional<Pfn> alloc(Pid pid, VirtAddr page_va, PageSize size,
                           std::uint32_t arena = 0);

  /// Allocate strictly from `tier` (no fallback); used by the page mover.
  std::optional<Pfn> alloc_exact(TierId tier, Pid pid, VirtAddr page_va,
                                 PageSize size, std::uint32_t arena = 0);

  /// Release a previously allocated page (head PFN). The frame returns to
  /// the arena whose range contains it.
  void free(Pfn head);

  /// Re-carve every tier's arena boundaries proportional to `weights`
  /// (one entry per arena; a zero-weight arena gets zero frames). The
  /// equal split of the constructor starves workloads whose processes
  /// cluster on few cores — e.g. a single-process workload only ever
  /// faults into one arena — so the system re-carves as processes are
  /// added, weighting each arena by the processes it will serve. Legal
  /// only while no frame is allocated; returns false (and leaves the
  /// carve untouched) once allocation has begun. Boundaries are a pure
  /// function of `weights`, so the carve stays reproducible across runs
  /// and thread counts.
  bool rebalance_arenas(const std::vector<std::uint64_t>& weights);

  /// Frame ownership lookup (phys_to_page analog).
  [[nodiscard]] const FrameInfo& frame(Pfn pfn) const;

  [[nodiscard]] std::uint64_t free_frames(TierId tier) const;
  [[nodiscard]] std::uint64_t used_frames(TierId tier) const;

  /// Checkpoint hooks: serializes arena boundaries, bump pointers, free
  /// lists and the full frame ownership map. Tier/arena counts must match
  /// the constructed geometry on load.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  /// One independently bump-allocated frame range within a tier. Each
  /// sharded core faults into its own arena from its own worker, so an
  /// arena owns its host cache lines.
  struct alignas(util::kCacheLine) ArenaState {
    Pfn base = 0;                ///< first frame of the arena
    Pfn top = 0;                 ///< one past the last frame
    Pfn low_bump = 0;            ///< next never-used 4 KiB frame
    Pfn high_bump = 0;           ///< top boundary for 2 MiB carving
    std::vector<Pfn> free_4k;    ///< recycled 4 KiB frames
    std::vector<Pfn> free_2m;    ///< recycled 2 MiB head frames
    std::uint64_t used = 0;      ///< allocated 4 KiB-frame count
  };

  struct TierState {
    TierSpec spec;
    Pfn base = 0;                ///< first frame of the tier
    std::vector<ArenaState> arenas;
  };

  std::optional<Pfn> take(ArenaState& arena, PageSize size);

  std::vector<TierState> tiers_;
  std::vector<FrameInfo> frames_;
  std::uint64_t total_frames_ = 0;
  std::uint32_t arenas_ = 1;
};

}  // namespace tmprof::mem
