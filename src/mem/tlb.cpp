#include "mem/tlb.hpp"

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::mem {

namespace {
constexpr bool is_pow2(std::uint32_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

TlbArray::TlbArray(std::uint32_t sets, std::uint32_t ways, PageSize size)
    : sets_(sets), ways_(ways), size_(size),
      entries_(static_cast<std::size_t>(sets) * ways) {
  TMPROF_EXPECTS(is_pow2(sets));
  TMPROF_EXPECTS(ways >= 1);
}

std::size_t TlbArray::set_of(Pid pid, Vpn vpn) const noexcept {
  // Mix the PID in so multi-process runs don't alias set 0 pathologically.
  const std::uint64_t h = vpn ^ (static_cast<std::uint64_t>(pid) << 17);
  return static_cast<std::size_t>(h & (sets_ - 1));
}

TlbArray::Entry* TlbArray::lookup(Pid pid, Vpn vpn) {
  Entry* base = &entries_[set_of(pid, vpn) * ways_];
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Entry& e = base[w];
    if (e.valid && e.pid == pid && e.vpn == vpn) {
      e.lru = ++tick_;
      return &e;
    }
  }
  return nullptr;
}

TlbArray::Entry& TlbArray::install(Pid pid, Vpn vpn, Pte* pte, bool dirty,
                                   Entry* evicted) {
  Entry* base = &entries_[set_of(pid, vpn) * ways_];
  Entry* victim = &base[0];
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Entry& e = base[w];
    if (e.valid && e.pid == pid && e.vpn == vpn) {
      victim = &e;  // refill in place
      break;
    }
    if (!e.valid) {
      victim = &e;
      break;
    }
    victim = e.lru < victim->lru ? &e : victim;  // select, don't branch
  }
  if (evicted != nullptr && victim->valid) *evicted = *victim;
  victim->pid = pid;
  victim->vpn = vpn;
  victim->pte = pte;
  victim->dirty_cached = dirty;
  victim->valid = true;
  return *victim;
}

TlbArray::Entry TlbArray::insert(Pid pid, Vpn vpn, Pte* pte, bool dirty) {
  Entry evicted;
  install(pid, vpn, pte, dirty, &evicted).lru = ++tick_;
  return evicted;
}

TlbArray::Entry* TlbArray::insert_and_lookup(Pid pid, Vpn vpn, Pte* pte,
                                             bool dirty) {
  // No valid match precedes the installed way (the scan stops at the first
  // one), so the lookup would find this entry and stamp it again.
  Entry& e = install(pid, vpn, pte, dirty, nullptr);
  tick_ += 2;
  e.lru = tick_;
  return &e;
}

void TlbArray::invalidate_page(Pid pid, Vpn vpn) {
  Entry* base = &entries_[set_of(pid, vpn) * ways_];
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Entry& e = base[w];
    if (e.valid && e.pid == pid && e.vpn == vpn) e.valid = false;
  }
}

void TlbArray::invalidate_pid(Pid pid) {
  for (Entry& e : entries_) {
    if (e.valid && e.pid == pid) e.valid = false;
  }
}

void TlbArray::flush() {
  for (Entry& e : entries_) e.valid = false;
}

std::uint64_t TlbArray::valid_entries() const noexcept {
  std::uint64_t n = 0;
  for (const Entry& e : entries_) n += e.valid ? 1 : 0;
  return n;
}

namespace {
constexpr Vpn size_vpn(VirtAddr vaddr, PageSize size) {
  return vaddr >> (size == PageSize::k4K ? kPageShift : kHugePageShift);
}
}  // namespace

Tlb::Tlb(const TlbLevelConfig& l1, const TlbLevelConfig& l2)
    : l1_4k_(l1.sets_4k, l1.ways_4k, PageSize::k4K),
      l1_2m_(l1.sets_2m, l1.ways_2m, PageSize::k2M),
      l2_4k_(l2.sets_4k, l2.ways_4k, PageSize::k4K),
      l2_2m_(l2.sets_2m, l2.ways_2m, PageSize::k2M) {}

Tlb Tlb::make_default() {
  // L1 dTLB: 64 entries (4K, full ≈ 1x64 modeled as 16 sets x 4),
  //          32 entries (2M). L2 STLB: 2048 x 8-way (4K), 128 x 4 (2M).
  return Tlb(TlbLevelConfig{16, 4, 8, 4}, TlbLevelConfig{256, 8, 32, 4});
}

Tlb::LookupResult Tlb::lookup(Pid pid, VirtAddr vaddr) {
  const Vpn v4 = size_vpn(vaddr, PageSize::k4K);
  const Vpn v2 = size_vpn(vaddr, PageSize::k2M);
  if (TlbArray::Entry* e = l1_4k_.lookup(pid, v4)) {
    return {TlbHit::L1, e, PageSize::k4K};
  }
  if (TlbArray::Entry* e = l1_2m_.lookup(pid, v2)) {
    return {TlbHit::L1, e, PageSize::k2M};
  }
  if (TlbArray::Entry* e = l2_4k_.lookup(pid, v4)) {
    return {TlbHit::L2,
            l1_4k_.insert_and_lookup(pid, v4, e->pte, e->dirty_cached),
            PageSize::k4K};
  }
  if (TlbArray::Entry* e = l2_2m_.lookup(pid, v2)) {
    return {TlbHit::L2,
            l1_2m_.insert_and_lookup(pid, v2, e->pte, e->dirty_cached),
            PageSize::k2M};
  }
  return {TlbHit::Miss, nullptr, PageSize::k4K};
}

TlbArray::Entry* Tlb::fill(Pid pid, VirtAddr page_va, PageSize size, Pte* pte,
                           bool dirty) {
  const Vpn vpn = size_vpn(page_va, size);
  if (size == PageSize::k4K) {
    l2_4k_.insert(pid, vpn, pte, dirty);
    return l1_4k_.insert_and_lookup(pid, vpn, pte, dirty);
  }
  l2_2m_.insert(pid, vpn, pte, dirty);
  return l1_2m_.insert_and_lookup(pid, vpn, pte, dirty);
}

void Tlb::invalidate_page(Pid pid, VirtAddr page_va, PageSize size) {
  const Vpn vpn = size_vpn(page_va, size);
  if (size == PageSize::k4K) {
    l1_4k_.invalidate_page(pid, vpn);
    l2_4k_.invalidate_page(pid, vpn);
  } else {
    l1_2m_.invalidate_page(pid, vpn);
    l2_2m_.invalidate_page(pid, vpn);
  }
}

void Tlb::invalidate_pid(Pid pid) {
  l1_4k_.invalidate_pid(pid);
  l1_2m_.invalidate_pid(pid);
  l2_4k_.invalidate_pid(pid);
  l2_2m_.invalidate_pid(pid);
}

void Tlb::flush() {
  l1_4k_.flush();
  l1_2m_.flush();
  l2_4k_.flush();
  l2_2m_.flush();
}

std::uint64_t Tlb::valid_entries() const noexcept {
  return l1_4k_.valid_entries() + l1_2m_.valid_entries() +
         l2_4k_.valid_entries() + l2_2m_.valid_entries();
}


// ---------------------------------------------------------------------------
// Checkpoint hooks

void TlbArray::save_state(util::ckpt::Writer& w) const {
  w.put_u32(sets_);
  w.put_u32(ways_);
  w.put_u64(tick_);
  // Per entry, as put_u64(pid), put_u64(vpn), put_bool(dirty_cached),
  // put_bool(valid), put_u64(lru).
  constexpr std::size_t kEntryBytes = 8 + 8 + 1 + 1 + 8;
  std::uint8_t* at = w.extend(entries_.size() * kEntryBytes);
  for (const Entry& e : entries_) {
    util::ckpt::pack_le(at, static_cast<std::uint64_t>(e.pid));
    util::ckpt::pack_le(at, static_cast<std::uint64_t>(e.vpn));
    util::ckpt::pack_le(at, static_cast<std::uint8_t>(e.dirty_cached));
    util::ckpt::pack_le(at, static_cast<std::uint8_t>(e.valid));
    util::ckpt::pack_le(at, static_cast<std::uint64_t>(e.lru));
  }
}

void TlbArray::load_state(util::ckpt::Reader& r, const PteResolver& resolve) {
  const std::uint32_t sets = r.get_u32();
  const std::uint32_t ways = r.get_u32();
  if (sets != sets_ || ways != ways_) {
    throw util::ckpt::CkptError(
        "tlb", "geometry mismatch: checkpoint has " + std::to_string(sets) +
                   "x" + std::to_string(ways) + ", configured " +
                   std::to_string(sets_) + "x" + std::to_string(ways_));
  }
  tick_ = r.get_u64();
  for (Entry& e : entries_) {
    e.pid = static_cast<Pid>(r.get_u64());
    e.vpn = r.get_u64();
    e.dirty_cached = r.get_bool();
    e.valid = r.get_bool();
    e.lru = r.get_u64();
    // Cached PTE pointers are process-local heap addresses; rebind against
    // the freshly rebuilt page tables. A valid entry whose translation no
    // longer exists would be a checkpoint/page-table inconsistency.
    e.pte = e.valid ? resolve(e.pid, e.vpn, size_) : nullptr;
    if (e.valid && e.pte == nullptr) {
      throw util::ckpt::CkptError(
          "tlb", "entry references unmapped page (pid " +
                     std::to_string(e.pid) + ", vpn " + std::to_string(e.vpn) +
                     ")");
    }
  }
}

void Tlb::save_state(util::ckpt::Writer& w) const {
  l1_4k_.save_state(w);
  l1_2m_.save_state(w);
  l2_4k_.save_state(w);
  l2_2m_.save_state(w);
}

void Tlb::load_state(util::ckpt::Reader& r,
                     const TlbArray::PteResolver& resolve) {
  l1_4k_.load_state(r, resolve);
  l1_2m_.load_state(r, resolve);
  l2_4k_.load_state(r, resolve);
  l2_2m_.load_state(r, resolve);
}

}  // namespace tmprof::mem
