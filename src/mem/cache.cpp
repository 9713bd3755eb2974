#include "mem/cache.hpp"

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::mem {

namespace {
constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

CacheLevel::CacheLevel(std::uint64_t size_bytes, std::uint32_t ways)
    : ways_(ways) {
  TMPROF_EXPECTS(ways >= 1);
  TMPROF_EXPECTS(size_bytes >= kLineSize * ways);
  const std::uint64_t lines = size_bytes / kLineSize;
  TMPROF_EXPECTS(lines % ways == 0);
  const std::uint64_t sets = lines / ways;
  TMPROF_EXPECTS(is_pow2(sets));
  sets_ = static_cast<std::uint32_t>(sets);
  ways_storage_.resize(static_cast<std::size_t>(sets_) * ways_);
}

CacheLevel::Probe CacheLevel::probe(PhysAddr paddr, bool is_store) {
  const std::uint64_t line = line_of(paddr);
  Way* base = set_base(line);
  // Track fill()'s victim while looking for the line, so a miss needs no
  // second scan. Keying invalid ways 0 and valid ways lru + 1 makes "first
  // invalid, else first LRU minimum" the first strict minimum of the key
  // (valid stamps come from ++tick_, so lru + 1 cannot wrap).
  std::uint32_t victim = 0;
  std::uint64_t victim_key = ~0ULL;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == line) {
      way.lru = ++tick_;
      way.dirty = way.dirty || is_store;
      return {true, w};
    }
    const std::uint64_t key = way.valid ? way.lru + 1 : 0;
    const bool better = key < victim_key;
    victim = better ? w : victim;
    victim_key = better ? key : victim_key;
  }
  return {false, victim};
}

bool CacheLevel::install(PhysAddr paddr, Probe miss, std::uint32_t owner) {
  TMPROF_ASSERT(!miss.hit && miss.victim < ways_);
  const std::uint64_t line = line_of(paddr);
  return install_way(set_base(line)[miss.victim], line, owner);
}

CacheLevel::Way* CacheLevel::fill_victim(std::uint64_t line) noexcept {
  Way* base = set_base(line);
  std::uint32_t victim = 0;
  std::uint64_t victim_lru = ~0ULL;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Way& way = base[w];
    if (!way.valid) return &way;
    if (way.tag == line) return nullptr;  // already resident
    const bool older = way.lru < victim_lru;  // select, don't branch
    victim = older ? w : victim;
    victim_lru = older ? way.lru : victim_lru;
  }
  return &base[victim];
}

bool CacheLevel::install_way(Way& victim, std::uint64_t line,
                             std::uint32_t owner) {
  const bool evicted = victim.valid;
  if (evicted && victim.dirty) ++dirty_evictions_;
  victim.tag = line;
  victim.valid = true;
  victim.dirty = false;
  victim.owner = owner;
  victim.lru = ++tick_;
  return evicted;
}

bool CacheLevel::fill(PhysAddr paddr, std::uint32_t owner) {
  const std::uint64_t line = line_of(paddr);
  Way* victim = fill_victim(line);
  return victim != nullptr && install_way(*victim, line, owner);
}

bool CacheLevel::fill_if_absent(PhysAddr paddr, std::uint32_t owner) {
  const std::uint64_t line = line_of(paddr);
  Way* victim = fill_victim(line);
  if (victim == nullptr) return false;
  install_way(*victim, line, owner);
  return true;
}

std::uint64_t CacheLevel::occupancy_lines(std::uint32_t owner) const {
  std::uint64_t lines = 0;
  for (const Way& way : ways_storage_) {
    if (way.valid && way.owner == owner) ++lines;
  }
  return lines;
}

bool CacheLevel::contains(PhysAddr paddr) const {
  const std::uint64_t line = line_of(paddr);
  const Way* base = &ways_storage_[set_of(line) * ways_];
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].tag == line) return true;
  }
  return false;
}

void CacheLevel::flush() {
  for (Way& way : ways_storage_) way.valid = false;
}

CacheHierarchy::CacheHierarchy(std::uint64_t l1_bytes, std::uint32_t l1_ways,
                               std::uint64_t l2_bytes, std::uint32_t l2_ways,
                               CacheLevel* llc, bool enable_prefetch)
    : l1_(l1_bytes, l1_ways),
      l2_(l2_bytes, l2_ways),
      llc_(llc),
      prefetch_(enable_prefetch) {
  TMPROF_EXPECTS(llc != nullptr);
}

CacheHierarchy CacheHierarchy::make_default(CacheLevel* llc,
                                            bool enable_prefetch) {
  return CacheHierarchy(32ULL << 10, 8, 512ULL << 10, 8, llc, enable_prefetch);
}

CacheAccess CacheHierarchy::access(PhysAddr paddr, bool is_store,
                                   std::uint32_t owner) {
  // One scan per level: each miss probe carries the victim its fill uses,
  // and no level's set changes between its probe and its install.
  CacheAccess result;
  const CacheLevel::Probe l1 = l1_.probe(paddr, is_store);
  if (l1.hit) {
    result.source = DataSource::L1;
    return result;
  }
  const CacheLevel::Probe l2 = l2_.probe(paddr, is_store);
  if (l2.hit) {
    l1_.install(paddr, l1);
    result.source = DataSource::L2;
    return result;
  }
  const CacheLevel::Probe llc = llc_->probe(paddr, is_store);
  if (llc.hit) {
    l2_.install(paddr, l2);
    l1_.install(paddr, l1);
    result.source = DataSource::LLC;
    return result;
  }
  // Demand miss all the way to memory: fill every level.
  result.llc_miss = true;
  result.source = DataSource::MemTier1;  // caller refines the tier
  llc_->install(paddr, llc, owner);
  l2_.install(paddr, l2);
  l1_.install(paddr, l1);
  if (prefetch_) {
    // Sequential next-line prefetch into the LLC. Only trigger on a
    // different demand line than last time to avoid self-feeding on
    // repeated misses to one line.
    const std::uint64_t line = line_of(paddr);
    if (line != last_demand_line_) {
      last_demand_line_ = line;
      // Prefetches bill the triggering RMID.
      if (llc_->fill_if_absent(paddr + kLineSize, owner)) {
        ++prefetch_fills_;
        result.prefetch_issued = true;
      }
    }
  }
  return result;
}

void CacheHierarchy::flush() {
  l1_.flush();
  l2_.flush();
}


// ---------------------------------------------------------------------------
// Checkpoint hooks

void CacheLevel::save_state(util::ckpt::Writer& w) const {
  w.put_u32(sets_);
  w.put_u32(ways_);
  w.put_u64(tick_);
  w.put_u64(dirty_evictions_);
  for (const Way& way : ways_storage_) {
    w.put_u64(way.tag);
    w.put_u64(way.lru);
    w.put_u32(way.owner);
    w.put_bool(way.valid);
    w.put_bool(way.dirty);
  }
}

void CacheLevel::load_state(util::ckpt::Reader& r) {
  const std::uint32_t sets = r.get_u32();
  const std::uint32_t ways = r.get_u32();
  if (sets != sets_ || ways != ways_) {
    throw util::ckpt::CkptError(
        "cache", "geometry mismatch: checkpoint has " + std::to_string(sets) +
                     "x" + std::to_string(ways) + ", configured " +
                     std::to_string(sets_) + "x" + std::to_string(ways_));
  }
  tick_ = r.get_u64();
  dirty_evictions_ = r.get_u64();
  for (Way& way : ways_storage_) {
    way.tag = r.get_u64();
    way.lru = r.get_u64();
    way.owner = r.get_u32();
    way.valid = r.get_bool();
    way.dirty = r.get_bool();
  }
}

void CacheHierarchy::save_state(util::ckpt::Writer& w) const {
  l1_.save_state(w);
  l2_.save_state(w);
  w.put_u64(prefetch_fills_);
  w.put_u64(last_demand_line_);
}

void CacheHierarchy::load_state(util::ckpt::Reader& r) {
  l1_.load_state(r);
  l2_.load_state(r);
  prefetch_fills_ = r.get_u64();
  last_demand_line_ = r.get_u64();
}

}  // namespace tmprof::mem
