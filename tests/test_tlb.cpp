#include "mem/tlb.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/page_table.hpp"
#include "util/ckpt.hpp"
#include "util/rng.hpp"

namespace tmprof::mem {
namespace {

class TlbTest : public ::testing::Test {
 protected:
  TlbTest() : tlb_(Tlb::make_default()) {
    pt_.map(0x1000, 10, PageSize::k4K);
    pt_.map(kHugePageSize * 2, 1024, PageSize::k2M);
  }

  Pte* pte4k() { return pt_.resolve(0x1000).pte; }
  Pte* pte2m() { return pt_.resolve(kHugePageSize * 2).pte; }

  PageTable pt_;
  Tlb tlb_;
};

TEST_F(TlbTest, MissWhenEmpty) {
  EXPECT_EQ(tlb_.lookup(1, 0x1000).level, TlbHit::Miss);
}

TEST_F(TlbTest, FillThenHitL1) {
  tlb_.fill(1, 0x1000, PageSize::k4K, pte4k(), false);
  const auto r = tlb_.lookup(1, 0x1234);
  EXPECT_EQ(r.level, TlbHit::L1);
  ASSERT_NE(r.entry, nullptr);
  EXPECT_EQ(r.entry->pte, pte4k());
  EXPECT_EQ(r.size, PageSize::k4K);
}

TEST_F(TlbTest, HugePageHitCoversWholeRegion) {
  tlb_.fill(1, kHugePageSize * 2, PageSize::k2M, pte2m(), false);
  const auto r = tlb_.lookup(1, kHugePageSize * 2 + 0x12345);
  EXPECT_EQ(r.level, TlbHit::L1);
  EXPECT_EQ(r.size, PageSize::k2M);
}

TEST_F(TlbTest, PidIsolation) {
  tlb_.fill(1, 0x1000, PageSize::k4K, pte4k(), false);
  EXPECT_EQ(tlb_.lookup(2, 0x1000).level, TlbHit::Miss);
}

TEST_F(TlbTest, InvalidatePage) {
  tlb_.fill(1, 0x1000, PageSize::k4K, pte4k(), false);
  tlb_.invalidate_page(1, 0x1000, PageSize::k4K);
  EXPECT_EQ(tlb_.lookup(1, 0x1000).level, TlbHit::Miss);
}

TEST_F(TlbTest, InvalidatePid) {
  tlb_.fill(1, 0x1000, PageSize::k4K, pte4k(), false);
  tlb_.fill(2, 0x1000, PageSize::k4K, pte4k(), false);
  tlb_.invalidate_pid(1);
  EXPECT_EQ(tlb_.lookup(1, 0x1000).level, TlbHit::Miss);
  EXPECT_EQ(tlb_.lookup(2, 0x1000).level, TlbHit::L1);
}

TEST_F(TlbTest, FlushClearsEverything) {
  tlb_.fill(1, 0x1000, PageSize::k4K, pte4k(), false);
  tlb_.fill(1, kHugePageSize * 2, PageSize::k2M, pte2m(), false);
  EXPECT_GT(tlb_.valid_entries(), 0U);
  tlb_.flush();
  EXPECT_EQ(tlb_.valid_entries(), 0U);
}

TEST_F(TlbTest, EvictionFromL1StillHitsInL2) {
  // Fill far more 4K translations than L1 holds (64 entries default).
  PageTable pt;
  for (std::uint64_t i = 0; i < 512; ++i) {
    pt.map(0x100000 + i * kPageSize, i + 1, PageSize::k4K);
  }
  for (std::uint64_t i = 0; i < 512; ++i) {
    const VirtAddr va = 0x100000 + i * kPageSize;
    tlb_.fill(1, va, PageSize::k4K, pt.resolve(va).pte, false);
  }
  // The very first page should be out of L1 but still in the larger L2.
  const auto r = tlb_.lookup(1, 0x100000);
  EXPECT_EQ(r.level, TlbHit::L2);
  // And now it is promoted: a second lookup hits L1.
  EXPECT_EQ(tlb_.lookup(1, 0x100000).level, TlbHit::L1);
}

TEST_F(TlbTest, DirtyCachedStateTracked) {
  auto* entry = tlb_.fill(1, 0x1000, PageSize::k4K, pte4k(), false);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->dirty_cached);
  entry->dirty_cached = true;
  EXPECT_TRUE(tlb_.lookup(1, 0x1000).entry->dirty_cached);
}

/// Property: an array never reports more valid entries than its capacity.
class TlbCapacity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TlbCapacity, NeverExceedsCapacity) {
  const std::uint32_t ways = GetParam();
  TlbArray arr(4, ways, PageSize::k4K);
  PageTable pt;
  for (std::uint64_t i = 0; i < 100; ++i) {
    pt.map(i * kPageSize, i + 1, PageSize::k4K);
    arr.insert(1, i, pt.resolve(i * kPageSize).pte, false);
    EXPECT_LE(arr.valid_entries(), arr.capacity());
  }
  EXPECT_EQ(arr.valid_entries(), arr.capacity());
}

INSTANTIATE_TEST_SUITE_P(Ways, TlbCapacity, ::testing::Values(1U, 2U, 4U, 8U));

TEST(TlbArray, LruEvictsOldest) {
  PageTable pt;
  for (std::uint64_t i = 0; i < 3; ++i) {
    pt.map(i * kPageSize, i + 1, PageSize::k4K);
  }
  TlbArray arr(1, 2, PageSize::k4K);
  arr.insert(1, 0, pt.resolve(0).pte, false);
  arr.insert(1, 1, pt.resolve(kPageSize).pte, false);
  // Touch vpn 0 so vpn 1 is LRU.
  EXPECT_NE(arr.lookup(1, 0), nullptr);
  arr.insert(1, 2, pt.resolve(2 * kPageSize).pte, false);
  EXPECT_NE(arr.lookup(1, 0), nullptr);
  EXPECT_EQ(arr.lookup(1, 1), nullptr);
  EXPECT_NE(arr.lookup(1, 2), nullptr);
}

TEST(TlbArray, InsertAndLookupStampsTwice) {
  PageTable pt;
  pt.map(0, 1, PageSize::k4K);
  TlbArray arr(1, 2, PageSize::k4K);
  arr.insert(1, 7, pt.resolve(0).pte, false);  // lru 1
  TlbArray::Entry* e = arr.insert_and_lookup(1, 9, pt.resolve(0).pte, true);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->vpn, 9U);
  EXPECT_TRUE(e->dirty_cached);
  EXPECT_EQ(e->lru, 3U);  // insert stamps 2, the lookup it replaces 3
  EXPECT_EQ(arr.lookup(1, 9), e);
}

// ---------------------------------------------------------------------------
// Differential: the fused insert-and-lookup TLB against the insert-then-
// lookup TLB it replaced, kept here as the reference model.

namespace reference {

class TlbArray {
 public:
  using Entry = mem::TlbArray::Entry;

  TlbArray(std::uint32_t sets, std::uint32_t ways, PageSize size)
      : sets_(sets), ways_(ways), size_(size),
        entries_(static_cast<std::size_t>(sets) * ways) {}

  Entry* lookup(Pid pid, Vpn vpn) {
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

  Entry insert(Pid pid, Vpn vpn, Pte* pte, bool dirty) {
    Entry* base = &entries_[set_of(pid, vpn) * ways_];
    Entry* victim = &base[0];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      Entry& e = base[w];
      if (e.valid && e.pid == pid && e.vpn == vpn) {
        victim = &e;
        break;
      }
      if (!e.valid) {
        victim = &e;
        break;
      }
      if (e.lru < victim->lru) victim = &e;
    }
    const Entry evicted = victim->valid ? *victim : Entry{};
    victim->pid = pid;
    victim->vpn = vpn;
    victim->pte = pte;
    victim->dirty_cached = dirty;
    victim->valid = true;
    victim->lru = ++tick_;
    return evicted;
  }

  void invalidate_page(Pid pid, Vpn vpn) {
    Entry* base = &entries_[set_of(pid, vpn) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      Entry& e = base[w];
      if (e.valid && e.pid == pid && e.vpn == vpn) e.valid = false;
    }
  }

  void invalidate_pid(Pid pid) {
    for (Entry& e : entries_) {
      if (e.valid && e.pid == pid) e.valid = false;
    }
  }

  void flush() {
    for (Entry& e : entries_) e.valid = false;
  }

  [[nodiscard]] std::uint64_t valid_entries() const noexcept {
    std::uint64_t n = 0;
    for (const Entry& e : entries_) n += e.valid ? 1U : 0U;
    return n;
  }

  void save_state(util::ckpt::Writer& w) const {
    w.put_u32(sets_);
    w.put_u32(ways_);
    w.put_u64(tick_);
    for (const Entry& e : entries_) {
      w.put_u64(e.pid);
      w.put_u64(e.vpn);
      w.put_bool(e.dirty_cached);
      w.put_bool(e.valid);
      w.put_u64(e.lru);
    }
  }

 private:
  [[nodiscard]] std::size_t set_of(Pid pid, Vpn vpn) const noexcept {
    const std::uint64_t h = vpn ^ (static_cast<std::uint64_t>(pid) << 17);
    return static_cast<std::size_t>(h & (sets_ - 1));
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  PageSize size_;
  std::uint64_t tick_ = 0;
  std::vector<Entry> entries_;
};

constexpr Vpn size_vpn(VirtAddr vaddr, PageSize size) {
  return vaddr >> (size == PageSize::k4K ? kPageShift : kHugePageShift);
}

class Tlb {
 public:
  using Entry = TlbArray::Entry;

  Tlb(const TlbLevelConfig& l1, const TlbLevelConfig& l2)
      : l1_4k_(l1.sets_4k, l1.ways_4k, PageSize::k4K),
        l1_2m_(l1.sets_2m, l1.ways_2m, PageSize::k2M),
        l2_4k_(l2.sets_4k, l2.ways_4k, PageSize::k4K),
        l2_2m_(l2.sets_2m, l2.ways_2m, PageSize::k2M) {}

  mem::Tlb::LookupResult lookup(Pid pid, VirtAddr vaddr) {
    const Vpn v4 = size_vpn(vaddr, PageSize::k4K);
    const Vpn v2 = size_vpn(vaddr, PageSize::k2M);
    if (Entry* e = l1_4k_.lookup(pid, v4)) return {TlbHit::L1, e, PageSize::k4K};
    if (Entry* e = l1_2m_.lookup(pid, v2)) return {TlbHit::L1, e, PageSize::k2M};
    if (Entry* e = l2_4k_.lookup(pid, v4)) {
      l1_4k_.insert(pid, v4, e->pte, e->dirty_cached);
      return {TlbHit::L2, l1_4k_.lookup(pid, v4), PageSize::k4K};
    }
    if (Entry* e = l2_2m_.lookup(pid, v2)) {
      l1_2m_.insert(pid, v2, e->pte, e->dirty_cached);
      return {TlbHit::L2, l1_2m_.lookup(pid, v2), PageSize::k2M};
    }
    return {TlbHit::Miss, nullptr, PageSize::k4K};
  }

  Entry* fill(Pid pid, VirtAddr page_va, PageSize size, Pte* pte,
              bool dirty) {
    const Vpn vpn = size_vpn(page_va, size);
    if (size == PageSize::k4K) {
      l2_4k_.insert(pid, vpn, pte, dirty);
      l1_4k_.insert(pid, vpn, pte, dirty);
      return l1_4k_.lookup(pid, vpn);
    }
    l2_2m_.insert(pid, vpn, pte, dirty);
    l1_2m_.insert(pid, vpn, pte, dirty);
    return l1_2m_.lookup(pid, vpn);
  }

  void invalidate_page(Pid pid, VirtAddr page_va, PageSize size) {
    const Vpn vpn = size_vpn(page_va, size);
    if (size == PageSize::k4K) {
      l1_4k_.invalidate_page(pid, vpn);
      l2_4k_.invalidate_page(pid, vpn);
    } else {
      l1_2m_.invalidate_page(pid, vpn);
      l2_2m_.invalidate_page(pid, vpn);
    }
  }

  void invalidate_pid(Pid pid) {
    for (TlbArray* a : {&l1_4k_, &l1_2m_, &l2_4k_, &l2_2m_}) {
      a->invalidate_pid(pid);
    }
  }

  void flush() {
    for (TlbArray* a : {&l1_4k_, &l1_2m_, &l2_4k_, &l2_2m_}) a->flush();
  }

  [[nodiscard]] std::uint64_t valid_entries() const noexcept {
    return l1_4k_.valid_entries() + l1_2m_.valid_entries() +
           l2_4k_.valid_entries() + l2_2m_.valid_entries();
  }

  void save_state(util::ckpt::Writer& w) const {
    l1_4k_.save_state(w);
    l1_2m_.save_state(w);
    l2_4k_.save_state(w);
    l2_2m_.save_state(w);
  }

 private:
  TlbArray l1_4k_;
  TlbArray l1_2m_;
  TlbArray l2_4k_;
  TlbArray l2_2m_;
};

}  // namespace reference

template <class T>
std::vector<std::uint8_t> tlb_bytes(const T& tlb) {
  util::ckpt::Writer w;
  w.begin_section("tlb");
  tlb.save_state(w);
  w.end_section();
  return w.finish();
}

/// Field-wise equality of the entries both models hand back (null or not).
void expect_same_entry(const TlbArray::Entry* got,
                       const TlbArray::Entry* want, int op) {
  ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op;
  if (got == nullptr) return;
  EXPECT_EQ(got->pid, want->pid) << "op " << op;
  EXPECT_EQ(got->vpn, want->vpn) << "op " << op;
  EXPECT_EQ(got->pte, want->pte) << "op " << op;
  EXPECT_EQ(got->dirty_cached, want->dirty_cached) << "op " << op;
  EXPECT_EQ(got->valid, want->valid) << "op " << op;
  EXPECT_EQ(got->lru, want->lru) << "op " << op;
}

struct TlbDiffTally {
  std::uint64_t l1 = 0, l2 = 0, miss = 0, huge_hits = 0, holes = 0;
};

void run_tlb_differential(const TlbLevelConfig& l1, const TlbLevelConfig& l2,
                          std::uint64_t seed, TlbDiffTally& tally) {
  SCOPED_TRACE(::testing::Message()
               << "l1=" << l1.sets_4k << "x" << l1.ways_4k << "/"
               << l1.sets_2m << "x" << l1.ways_2m << " l2=" << l2.sets_4k
               << "x" << l2.ways_4k << "/" << l2.sets_2m << "x" << l2.ways_2m
               << " seed=" << seed);
  util::Rng rng(seed);
  Tlb tlb_new(l1, l2);
  reference::Tlb tlb_ref(l1, l2);
  // The TLBs only carry PTE pointers; one slot per page keeps them
  // distinct. 4 KiB pages sit low, 2 MiB pages from 1 GiB up.
  constexpr std::uint64_t k4kPages = 48;
  constexpr std::uint64_t k2mPages = 12;
  constexpr VirtAddr kHugeBase = 1ULL << 30;
  std::vector<Pte> ptes(3 * (k4kPages + k2mPages));
  const auto pick = [&](Pid& pid, VirtAddr& page_va, PageSize& size,
                        Pte*& pte) {
    pid = static_cast<Pid>(1 + rng.below(3));
    std::uint64_t slot = (pid - 1) * (k4kPages + k2mPages);
    if (rng.below(4) == 0) {
      const std::uint64_t page = rng.below(k2mPages);
      size = PageSize::k2M;
      page_va = kHugeBase + page * kHugePageSize;
      slot += k4kPages + page;
    } else {
      const std::uint64_t page = rng.below(k4kPages);
      size = PageSize::k4K;
      page_va = page * kPageSize;
      slot += page;
    }
    pte = &ptes[slot];
  };

  for (int op = 0; op < 4000; ++op) {
    Pid pid = 0;
    VirtAddr page_va = 0;
    PageSize size = PageSize::k4K;
    Pte* pte = nullptr;
    pick(pid, page_va, size, pte);
    const std::uint64_t kind = rng.below(100);
    if (kind < 55) {
      const VirtAddr vaddr =
          page_va + rng.below(size == PageSize::k4K ? kPageSize
                                                    : kHugePageSize);
      const Tlb::LookupResult got = tlb_new.lookup(pid, vaddr);
      const Tlb::LookupResult want = tlb_ref.lookup(pid, vaddr);
      ASSERT_EQ(got.level, want.level) << "op " << op;
      ASSERT_EQ(got.size, want.size) << "op " << op;
      expect_same_entry(got.entry, want.entry, op);
      tally.l1 += got.level == TlbHit::L1 ? 1U : 0U;
      tally.l2 += got.level == TlbHit::L2 ? 1U : 0U;
      tally.miss += got.level == TlbHit::Miss ? 1U : 0U;
      tally.huge_hits +=
          got.level != TlbHit::Miss && got.size == PageSize::k2M ? 1U : 0U;
      // A store through a clean entry caches the D bit, as System does.
      if (got.entry != nullptr && rng.below(3) == 0) {
        got.entry->dirty_cached = true;
        want.entry->dirty_cached = true;
      }
    } else if (kind < 85) {
      const bool dirty = rng.below(2) == 0;
      expect_same_entry(tlb_new.fill(pid, page_va, size, pte, dirty),
                        tlb_ref.fill(pid, page_va, size, pte, dirty), op);
    } else if (kind < 97) {
      // Targeted shootdowns leave holes in the middle of sets.
      tlb_new.invalidate_page(pid, page_va, size);
      tlb_ref.invalidate_page(pid, page_va, size);
      tally.holes += 1;
    } else if (kind < 99) {
      tlb_new.invalidate_pid(pid);
      tlb_ref.invalidate_pid(pid);
    } else {
      tlb_new.flush();
      tlb_ref.flush();
    }
    if (::testing::Test::HasFailure()) return;
    ASSERT_EQ(tlb_new.valid_entries(), tlb_ref.valid_entries()) << "op " << op;
    if (op % 89 == 0) {
      ASSERT_EQ(tlb_bytes(tlb_new), tlb_bytes(tlb_ref)) << "op " << op;
    }
  }
  ASSERT_EQ(tlb_bytes(tlb_new), tlb_bytes(tlb_ref));
}

TEST(TlbDifferential, FusedInsertMatchesInsertThenLookupReference) {
  TlbDiffTally tally;
  constexpr std::uint32_t kSets[] = {1, 2};
  constexpr std::uint32_t kWays[] = {1, 2, 4};
  std::uint64_t seed = 1;
  for (const std::uint32_t sets : kSets) {
    for (const std::uint32_t ways : kWays) {
      for (int rep = 0; rep < 4; ++rep, ++seed) {
        util::Rng pick(seed * 104729);
        const TlbLevelConfig l1{sets, ways, sets, ways};
        // The second level is larger so L1 evictions promote from it.
        const TlbLevelConfig l2{
            sets * (2U << pick.below(2)), ways * (1U << pick.below(3)),
            sets * 2, ways * (1U << pick.below(2))};
        run_tlb_differential(l1, l2, seed, tally);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  EXPECT_GT(tally.l1, 0U);
  EXPECT_GT(tally.l2, 0U);
  EXPECT_GT(tally.miss, 0U);
  EXPECT_GT(tally.huge_hits, 0U);
  EXPECT_GT(tally.holes, 0U);
}

}  // namespace
}  // namespace tmprof::mem
