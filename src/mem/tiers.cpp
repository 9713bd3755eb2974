#include "mem/tiers.hpp"

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::mem {

PhysMemory::PhysMemory(std::vector<TierSpec> tiers, std::uint32_t arenas)
    : arenas_(arenas) {
  TMPROF_EXPECTS(!tiers.empty());
  TMPROF_EXPECTS(arenas >= 1);
  Pfn base = 0;
  for (auto& spec : tiers) {
    TMPROF_EXPECTS(spec.frames > 0);
    TierState state;
    state.spec = std::move(spec);
    state.base = base;
    const Pfn top = base + state.spec.frames;
    // Slice the tier into `arenas` contiguous ranges; the last arena takes
    // the remainder. Boundaries depend only on (frames, arenas), so the
    // carve is reproducible across runs and thread counts.
    const std::uint64_t per_arena = state.spec.frames / arenas;
    state.arenas.resize(arenas);
    for (std::uint32_t a = 0; a < arenas; ++a) {
      ArenaState& arena = state.arenas[a];
      arena.base = base + a * per_arena;
      arena.top = (a + 1 == arenas) ? top : arena.base + per_arena;
      arena.low_bump = arena.base;
      // Huge pages are carved downward from the arena top; the floor starts
      // at the (possibly unaligned) top and each carve aligns itself.
      arena.high_bump = arena.top;
    }
    base = top;
    tiers_.push_back(std::move(state));
  }
  total_frames_ = base;
  frames_.resize(total_frames_);
}

const TierSpec& PhysMemory::tier(TierId id) const {
  TMPROF_EXPECTS(id < tiers_.size());
  return tiers_[id].spec;
}

TierId PhysMemory::tier_of(Pfn pfn) const {
  TMPROF_EXPECTS(pfn < total_frames_);
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (pfn < tiers_[i].base + tiers_[i].spec.frames) {
      return static_cast<TierId>(i);
    }
  }
  TMPROF_ASSERT(false);
  return 0;
}

std::optional<Pfn> PhysMemory::take(ArenaState& arena, PageSize size) {
  if (size == PageSize::k4K) {
    if (!arena.free_4k.empty()) {
      const Pfn pfn = arena.free_4k.back();
      arena.free_4k.pop_back();
      return pfn;
    }
    // The low bump may not cross into the huge-page region carved above.
    if (arena.low_bump < arena.high_bump) return arena.low_bump++;
    return std::nullopt;
  }
  if (!arena.free_2m.empty()) {
    const Pfn pfn = arena.free_2m.back();
    arena.free_2m.pop_back();
    return pfn;
  }
  // Carve a 512-aligned chunk just below the current huge-page floor.
  if (arena.high_bump >= kPagesPerHuge) {
    const Pfn candidate = (arena.high_bump - kPagesPerHuge) &
                          ~(kPagesPerHuge - 1);
    if (candidate >= arena.low_bump && candidate >= arena.base) {
      arena.high_bump = candidate;
      return candidate;
    }
  }
  return std::nullopt;
}

std::optional<Pfn> PhysMemory::alloc(Pid pid, VirtAddr page_va,
                                     PageSize size, std::uint32_t arena) {
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    if (auto pfn =
            alloc_exact(static_cast<TierId>(i), pid, page_va, size, arena)) {
      return pfn;
    }
  }
  return std::nullopt;
}

std::optional<Pfn> PhysMemory::alloc_exact(TierId tier_id, Pid pid,
                                           VirtAddr page_va, PageSize size,
                                           std::uint32_t arena) {
  TMPROF_EXPECTS(tier_id < tiers_.size());
  TMPROF_EXPECTS(arena < arenas_);
  ArenaState& state = tiers_[tier_id].arenas[arena];
  const auto head = take(state, size);
  if (!head) return std::nullopt;
  const std::uint64_t span = pages_in(size);
  for (std::uint64_t i = 0; i < span; ++i) {
    FrameInfo& info = frames_[*head + i];
    TMPROF_ASSERT(!info.allocated);
    info.pid = pid;
    info.page_va = page_va;
    info.size = size;
    info.allocated = true;
    info.head = i == 0;
  }
  state.used += span;
  return head;
}

bool PhysMemory::rebalance_arenas(const std::vector<std::uint64_t>& weights) {
  TMPROF_EXPECTS(weights.size() == arenas_);
  std::uint64_t total_weight = 0;
  for (const std::uint64_t w : weights) total_weight += w;
  TMPROF_EXPECTS(total_weight > 0);
  for (const TierState& tier : tiers_) {
    for (const ArenaState& arena : tier.arenas) {
      if (arena.used != 0 || !arena.free_4k.empty() || !arena.free_2m.empty() ||
          arena.low_bump != arena.base || arena.high_bump != arena.top) {
        return false;
      }
    }
  }
  for (TierState& tier : tiers_) {
    const Pfn top = tier.base + tier.spec.frames;
    std::uint64_t prefix = 0;
    Pfn cursor = tier.base;
    for (std::uint32_t a = 0; a < arenas_; ++a) {
      prefix += weights[a];
      ArenaState& arena = tier.arenas[a];
      arena.base = cursor;
      // Cumulative proportional boundary: the per-arena frame counts sum
      // exactly to the tier size, with rounding spread deterministically.
      arena.top = (a + 1 == arenas_)
                      ? top
                      : tier.base + tier.spec.frames * prefix / total_weight;
      arena.low_bump = arena.base;
      arena.high_bump = arena.top;
      cursor = arena.top;
    }
  }
  return true;
}

void PhysMemory::free(Pfn head) {
  TMPROF_EXPECTS(head < total_frames_);
  FrameInfo& info = frames_[head];
  TMPROF_EXPECTS(info.allocated && info.head);
  const PageSize size = info.size;
  const std::uint64_t span = pages_in(size);
  for (std::uint64_t i = 0; i < span; ++i) {
    frames_[head + i] = FrameInfo{};
  }
  TierState& tier = tiers_[tier_of(head)];
  ArenaState* arena = &tier.arenas.front();
  for (ArenaState& candidate : tier.arenas) {
    if (head >= candidate.base && head < candidate.top) {
      arena = &candidate;
      break;
    }
  }
  arena->used -= span;
  if (size == PageSize::k4K) arena->free_4k.push_back(head);
  else arena->free_2m.push_back(head);
}

const FrameInfo& PhysMemory::frame(Pfn pfn) const {
  TMPROF_EXPECTS(pfn < total_frames_);
  return frames_[pfn];
}

std::uint64_t PhysMemory::free_frames(TierId tier) const {
  TMPROF_EXPECTS(tier < tiers_.size());
  return tiers_[tier].spec.frames - used_frames(tier);
}

std::uint64_t PhysMemory::used_frames(TierId tier) const {
  TMPROF_EXPECTS(tier < tiers_.size());
  std::uint64_t used = 0;
  for (const ArenaState& arena : tiers_[tier].arenas) used += arena.used;
  return used;
}


// ---------------------------------------------------------------------------
// Checkpoint hooks

void PhysMemory::save_state(util::ckpt::Writer& w) const {
  w.put_u32(static_cast<std::uint32_t>(tiers_.size()));
  w.put_u32(arenas_);
  w.put_u64(total_frames_);
  for (const TierState& tier : tiers_) {
    w.put_u64(tier.base);
    w.put_u32(static_cast<std::uint32_t>(tier.arenas.size()));
    for (const ArenaState& arena : tier.arenas) {
      w.put_u64(arena.base);
      w.put_u64(arena.top);
      w.put_u64(arena.low_bump);
      w.put_u64(arena.high_bump);
      w.put_u64(arena.used);
      w.put_u64(arena.free_4k.size());
      for (const Pfn pfn : arena.free_4k) w.put_u64(pfn);
      w.put_u64(arena.free_2m.size());
      for (const Pfn pfn : arena.free_2m) w.put_u64(pfn);
    }
  }
  // Frame map, sparse: only allocated frames differ from the default.
  std::uint64_t allocated = 0;
  for (const FrameInfo& f : frames_) allocated += f.allocated ? 1 : 0;
  w.put_u64(allocated);
  for (std::size_t pfn = 0; pfn < frames_.size(); ++pfn) {
    const FrameInfo& f = frames_[pfn];
    if (!f.allocated) continue;
    w.put_u64(pfn);
    w.put_u64(f.pid);
    w.put_u64(f.page_va);
    w.put_u8(static_cast<std::uint8_t>(f.size));
    w.put_bool(f.head);
  }
}

void PhysMemory::load_state(util::ckpt::Reader& r) {
  const std::uint32_t n_tiers = r.get_u32();
  const std::uint32_t arenas = r.get_u32();
  const std::uint64_t total = r.get_u64();
  if (n_tiers != tiers_.size() || arenas != arenas_ ||
      total != total_frames_) {
    throw util::ckpt::CkptError(
        "phys", "geometry mismatch: checkpoint has " + std::to_string(n_tiers) +
                    " tiers / " + std::to_string(arenas) + " arenas / " +
                    std::to_string(total) + " frames");
  }
  for (TierState& tier : tiers_) {
    tier.base = r.get_u64();
    const std::uint32_t n_arenas = r.get_u32();
    if (n_arenas != tier.arenas.size()) {
      throw util::ckpt::CkptError("phys", "arena count mismatch");
    }
    for (ArenaState& arena : tier.arenas) {
      arena.base = r.get_u64();
      arena.top = r.get_u64();
      arena.low_bump = r.get_u64();
      arena.high_bump = r.get_u64();
      arena.used = r.get_u64();
      arena.free_4k.resize(r.get_u64());
      for (Pfn& pfn : arena.free_4k) pfn = r.get_u64();
      arena.free_2m.resize(r.get_u64());
      for (Pfn& pfn : arena.free_2m) pfn = r.get_u64();
    }
  }
  for (FrameInfo& f : frames_) f = FrameInfo{};
  const std::uint64_t allocated = r.get_u64();
  for (std::uint64_t i = 0; i < allocated; ++i) {
    const std::uint64_t pfn = r.get_u64();
    if (pfn >= frames_.size()) {
      throw util::ckpt::CkptError("phys", "frame index out of range");
    }
    FrameInfo& f = frames_[pfn];
    f.pid = static_cast<Pid>(r.get_u64());
    f.page_va = r.get_u64();
    f.size = static_cast<PageSize>(r.get_u8());
    f.allocated = true;
    f.head = r.get_bool();
  }
}

}  // namespace tmprof::mem
