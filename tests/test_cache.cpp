#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/ckpt.hpp"
#include "util/rng.hpp"

namespace tmprof::mem {
namespace {

TEST(CacheLevel, MissThenHitAfterFill) {
  CacheLevel c(4096, 4);
  EXPECT_FALSE(c.access(0x1000, false));
  c.fill(0x1000);
  EXPECT_TRUE(c.access(0x1000, false));
  // Same line, different byte.
  EXPECT_TRUE(c.access(0x103f, false));
  // Next line misses.
  EXPECT_FALSE(c.access(0x1040, false));
}

TEST(CacheLevel, LruEviction) {
  // 2 sets x 2 ways, 64B lines => 256 bytes.
  CacheLevel c(256, 2);
  // Three lines mapping to set 0 (line addresses even).
  c.fill(0x000);
  c.fill(0x080);
  EXPECT_TRUE(c.access(0x000, false));  // make 0x080 LRU
  c.fill(0x100);
  EXPECT_TRUE(c.contains(0x000));
  EXPECT_FALSE(c.contains(0x080));
  EXPECT_TRUE(c.contains(0x100));
}

TEST(CacheLevel, DirtyEvictionCounted) {
  CacheLevel c(256, 1);  // direct mapped, 4 sets
  c.fill(0x000);
  EXPECT_TRUE(c.access(0x000, true));  // dirty it
  c.fill(0x100);                        // same set, evicts dirty line
  EXPECT_EQ(c.dirty_evictions(), 1U);
}

TEST(CacheLevel, FlushEmptiesCache) {
  CacheLevel c(4096, 4);
  c.fill(0x1000);
  c.flush();
  EXPECT_FALSE(c.contains(0x1000));
}

TEST(CacheLevel, GeometryValidated) {
  EXPECT_THROW(CacheLevel(100, 4), util::AssertionError);   // not line multiple
  EXPECT_THROW(CacheLevel(192, 1), util::AssertionError);   // sets not pow2
  CacheLevel ok(1 << 15, 8);
  EXPECT_EQ(ok.size_bytes(), 1ULL << 15);
  EXPECT_EQ(ok.sets() * ok.ways() * kLineSize, 1ULL << 15);
}

class HierarchyTest : public ::testing::Test {
 protected:
  HierarchyTest()
      : llc_(1 << 20, 16),
        hier_(CacheHierarchy::make_default(&llc_, /*enable_prefetch=*/false)) {}

  CacheLevel llc_;
  CacheHierarchy hier_;
};

TEST_F(HierarchyTest, ColdMissGoesToMemoryThenHitsL1) {
  auto first = hier_.access(0x10000, false);
  EXPECT_TRUE(first.llc_miss);
  EXPECT_TRUE(is_memory(first.source));
  auto second = hier_.access(0x10000, false);
  EXPECT_EQ(second.source, DataSource::L1);
  EXPECT_FALSE(second.llc_miss);
}

TEST_F(HierarchyTest, LlcHitAfterPrivateFlush) {
  hier_.access(0x10000, false);
  hier_.flush();  // clears L1/L2 only
  auto r = hier_.access(0x10000, false);
  EXPECT_EQ(r.source, DataSource::LLC);
}

TEST(Hierarchy, PrefetchNextLineMakesItAnLlcHit) {
  CacheLevel llc(1 << 20, 16);
  CacheHierarchy hier = CacheHierarchy::make_default(&llc, true);
  auto first = hier.access(0x20000, false);
  EXPECT_TRUE(first.llc_miss);
  EXPECT_TRUE(first.prefetch_issued);
  EXPECT_EQ(hier.prefetch_fills(), 1U);
  // The next line was prefetched into the LLC only: the demand access hits
  // LLC, not memory.
  auto next = hier.access(0x20040, false);
  EXPECT_EQ(next.source, DataSource::LLC);
  EXPECT_FALSE(next.llc_miss);
}

TEST(Hierarchy, RepeatedMissSameLineDoesNotSelfFeedPrefetch) {
  CacheLevel llc(1 << 12, 1);  // tiny direct-mapped LLC to force misses
  CacheHierarchy hier(64 * 2, 1, 64 * 2, 1, &llc, true);
  hier.access(0x0, false);
  const std::uint64_t fills_before = hier.prefetch_fills();
  // Conflicting line evicts, then re-access the first: new demand line each
  // time, prefetcher triggers at most once per distinct line.
  hier.access(0x0, false);
  EXPECT_EQ(hier.prefetch_fills(), fills_before);
}

TEST(CacheLevel, ProbeNamesFillVictimAndInstallUsesIt) {
  // 1 set x 4 ways: fill three lines, touch the first, probe a fourth and
  // a fifth line.
  CacheLevel c(256, 4);
  c.fill(0x000);
  c.fill(0x040);
  c.fill(0x080);
  EXPECT_TRUE(c.access(0x000, false));
  const CacheLevel::Probe cold = c.probe(0x0c0, false);
  EXPECT_FALSE(cold.hit);
  EXPECT_EQ(cold.victim, 3U);  // first invalid way
  EXPECT_FALSE(c.install(0x0c0, cold));
  const CacheLevel::Probe full = c.probe(0x100, false);
  EXPECT_FALSE(full.hit);
  EXPECT_EQ(full.victim, 1U);  // 0x040: the least recently used
  EXPECT_TRUE(c.install(0x100, full));
  EXPECT_FALSE(c.contains(0x040));
  EXPECT_TRUE(c.probe(0x100, true).hit);
}

TEST(CacheLevel, FillIfAbsentSkipsResidentLines) {
  CacheLevel c(256, 2);
  EXPECT_TRUE(c.fill_if_absent(0x000, 3));
  EXPECT_FALSE(c.fill_if_absent(0x000, 3));
  EXPECT_EQ(c.occupancy_lines(3), 1U);
}

// ---------------------------------------------------------------------------
// Differential: the one-pass probe/install hierarchy against the
// scan-per-call hierarchy it replaced, kept here as the reference model.

namespace reference {

/// access() scans the set for a hit; fill() rescans it for a victim.
class CacheLevel {
 public:
  CacheLevel(std::uint64_t size_bytes, std::uint32_t ways)
      : sets_(static_cast<std::uint32_t>(size_bytes / kLineSize / ways)),
        ways_(ways),
        ways_storage_(static_cast<std::size_t>(size_bytes / kLineSize)) {}

  bool access(PhysAddr paddr, bool is_store) {
    const std::uint64_t line = line_of(paddr);
    Way* base = &ways_storage_[set_of(line) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == line) {
        way.lru = ++tick_;
        way.dirty = way.dirty || is_store;
        return true;
      }
    }
    return false;
  }

  bool fill(PhysAddr paddr, std::uint32_t owner = 0) {
    const std::uint64_t line = line_of(paddr);
    Way* base = &ways_storage_[set_of(line) * ways_];
    Way* victim = &base[0];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == line) return false;
      if (!way.valid) {
        victim = &way;
        break;
      }
      if (way.lru < victim->lru) victim = &way;
    }
    const bool evicted = victim->valid;
    if (evicted && victim->dirty) ++dirty_evictions_;
    victim->tag = line;
    victim->valid = true;
    victim->dirty = false;
    victim->owner = owner;
    victim->lru = ++tick_;
    return evicted;
  }

  [[nodiscard]] bool contains(PhysAddr paddr) const {
    const std::uint64_t line = line_of(paddr);
    const Way* base = &ways_storage_[set_of(line) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == line) return true;
    }
    return false;
  }

  [[nodiscard]] std::uint64_t occupancy_lines(std::uint32_t owner) const {
    std::uint64_t lines = 0;
    for (const Way& way : ways_storage_) {
      if (way.valid && way.owner == owner) ++lines;
    }
    return lines;
  }

  void flush() {
    for (Way& way : ways_storage_) way.valid = false;
  }

  void save_state(util::ckpt::Writer& w) const {
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

  void load_state(util::ckpt::Reader& r) {
    (void)r.get_u32();
    (void)r.get_u32();
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

  [[nodiscard]] std::uint64_t dirty_evictions() const noexcept {
    return dirty_evictions_;
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    std::uint32_t owner = 0;
    bool valid = false;
    bool dirty = false;
  };

  [[nodiscard]] std::size_t set_of(std::uint64_t line) const noexcept {
    return static_cast<std::size_t>(line & (sets_ - 1));
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint64_t tick_ = 0;
  std::uint64_t dirty_evictions_ = 0;
  std::vector<Way> ways_storage_;
};

/// Probes L1 → L2 → LLC, then fills each level by rescanning it; the
/// prefetch is contains() followed by fill().
class CacheHierarchy {
 public:
  CacheHierarchy(std::uint64_t l1_bytes, std::uint32_t l1_ways,
                 std::uint64_t l2_bytes, std::uint32_t l2_ways,
                 CacheLevel* llc, bool enable_prefetch)
      : l1_(l1_bytes, l1_ways),
        l2_(l2_bytes, l2_ways),
        llc_(llc),
        prefetch_(enable_prefetch) {}

  CacheAccess access(PhysAddr paddr, bool is_store, std::uint32_t owner) {
    CacheAccess result;
    if (l1_.access(paddr, is_store)) {
      result.source = DataSource::L1;
      return result;
    }
    if (l2_.access(paddr, is_store)) {
      l1_.fill(paddr);
      result.source = DataSource::L2;
      return result;
    }
    if (llc_->access(paddr, is_store)) {
      l2_.fill(paddr);
      l1_.fill(paddr);
      result.source = DataSource::LLC;
      return result;
    }
    result.llc_miss = true;
    result.source = DataSource::MemTier1;
    llc_->fill(paddr, owner);
    l2_.fill(paddr);
    l1_.fill(paddr);
    if (prefetch_) {
      const std::uint64_t line = line_of(paddr);
      if (line != last_demand_line_) {
        last_demand_line_ = line;
        const PhysAddr next = paddr + kLineSize;
        if (!llc_->contains(next)) {
          llc_->fill(next, owner);
          ++prefetch_fills_;
          result.prefetch_issued = true;
        }
      }
    }
    return result;
  }

  void flush() {
    l1_.flush();
    l2_.flush();
  }

  void save_state(util::ckpt::Writer& w) const {
    l1_.save_state(w);
    l2_.save_state(w);
    w.put_u64(prefetch_fills_);
    w.put_u64(last_demand_line_);
  }

  void load_state(util::ckpt::Reader& r) {
    l1_.load_state(r);
    l2_.load_state(r);
    prefetch_fills_ = r.get_u64();
    last_demand_line_ = r.get_u64();
  }

  [[nodiscard]] std::uint64_t prefetch_fills() const noexcept {
    return prefetch_fills_;
  }

 private:
  CacheLevel l1_;
  CacheLevel l2_;
  CacheLevel* llc_;
  bool prefetch_;
  std::uint64_t prefetch_fills_ = 0;
  std::uint64_t last_demand_line_ = ~0ULL;
};

}  // namespace reference

/// Checkpoint bytes of a hierarchy plus its LLC.
template <class Hierarchy, class Level>
std::vector<std::uint8_t> cache_bytes(const Hierarchy& hier,
                                      const Level& llc) {
  util::ckpt::Writer w;
  w.begin_section("cache");
  hier.save_state(w);
  llc.save_state(w);
  w.end_section();
  return w.finish();
}

struct Geometry {
  std::uint32_t sets;
  std::uint32_t ways;
  [[nodiscard]] std::uint64_t bytes() const { return sets * ways * kLineSize; }
};

constexpr Geometry kGeometries[] = {{1, 1}, {1, 2}, {1, 8}, {1, 16},
                                    {2, 1}, {2, 2}, {2, 8}, {2, 16}};
constexpr std::uint64_t kLinePool = 64;

/// A saved CacheLevel with, per set, a random prefix of valid ways holding
/// distinct pool lines, and LRU stamps drawn from {0..3} so the victim
/// rule must break ties. The shape is what fill() leaves behind (valid
/// ways form a prefix); the tied stamps are not, which is the point.
void put_seeded_level(util::ckpt::Writer& w, const Geometry& g,
                      util::Rng& rng) {
  w.put_u32(g.sets);
  w.put_u32(g.ways);
  w.put_u64(4);  // tick
  w.put_u64(0);  // dirty evictions
  for (std::uint32_t set = 0; set < g.sets; ++set) {
    std::vector<std::uint64_t> lines;
    for (std::uint64_t line = set; line < kLinePool; line += g.sets) {
      lines.push_back(line);
    }
    for (std::size_t i = lines.size(); i > 1; --i) {
      std::swap(lines[i - 1], lines[rng.below(i)]);
    }
    const std::uint64_t valid = rng.below(g.ways + 1);
    for (std::uint32_t way = 0; way < g.ways; ++way) {
      w.put_u64(lines[way]);
      w.put_u64(rng.below(4));
      w.put_u32(static_cast<std::uint32_t>(rng.below(4)));
      w.put_bool(way < valid);
      w.put_bool(rng.below(2) == 0);
    }
  }
}

struct CacheDiffTally {
  std::uint64_t l1 = 0, l2 = 0, llc = 0, mem = 0, prefetches = 0;
  std::uint64_t direct_fills = 0, evictions = 0;
};

/// Drives both hierarchies with one seeded stream and compares every
/// result, counter and (at intervals) the checkpoint bytes.
void run_cache_differential(const Geometry& l1, const Geometry& l2,
                            const Geometry& llc, bool prefetch, bool seeded,
                            std::uint64_t seed, CacheDiffTally& tally) {
  SCOPED_TRACE(::testing::Message()
               << "l1=" << l1.sets << "x" << l1.ways << " l2=" << l2.sets
               << "x" << l2.ways << " llc=" << llc.sets << "x" << llc.ways
               << " prefetch=" << prefetch << " seeded=" << seeded
               << " seed=" << seed);
  util::Rng rng(seed);
  CacheLevel llc_new(llc.bytes(), llc.ways);
  reference::CacheLevel llc_ref(llc.bytes(), llc.ways);
  CacheHierarchy hier_new(l1.bytes(), l1.ways, l2.bytes(), l2.ways, &llc_new,
                          prefetch);
  reference::CacheHierarchy hier_ref(l1.bytes(), l1.ways, l2.bytes(), l2.ways,
                                     &llc_ref, prefetch);
  if (seeded) {
    util::ckpt::Writer w;
    w.begin_section("cache");
    put_seeded_level(w, l1, rng);
    put_seeded_level(w, l2, rng);
    w.put_u64(0);     // prefetch fills
    w.put_u64(~0ULL);  // last demand line
    put_seeded_level(w, llc, rng);
    w.end_section();
    const std::vector<std::uint8_t> image = w.finish();
    util::ckpt::Reader r_new(image);
    r_new.enter_section("cache");
    hier_new.load_state(r_new);
    llc_new.load_state(r_new);
    r_new.end_section();
    util::ckpt::Reader r_ref(image);
    r_ref.enter_section("cache");
    hier_ref.load_state(r_ref);
    llc_ref.load_state(r_ref);
    ASSERT_EQ(cache_bytes(hier_new, llc_new), image);
  }

  std::uint64_t line = rng.below(kLinePool);
  for (int op = 0; op < 3000; ++op) {
    // Mostly random pool lines; sometimes walk to the next line so the
    // prefetched line is demanded.
    line = rng.below(4) == 0 ? (line + 1) % kLinePool : rng.below(kLinePool);
    const PhysAddr paddr = line * kLineSize + rng.below(kLineSize);
    const bool is_store = rng.below(3) == 0;
    const auto owner = static_cast<std::uint32_t>(rng.below(4));
    const std::uint64_t kind = rng.below(100);
    if (kind < 80) {
      const CacheAccess got = hier_new.access(paddr, is_store, owner);
      const CacheAccess want = hier_ref.access(paddr, is_store, owner);
      ASSERT_EQ(got.source, want.source) << "op " << op;
      ASSERT_EQ(got.llc_miss, want.llc_miss) << "op " << op;
      ASSERT_EQ(got.prefetch_issued, want.prefetch_issued) << "op " << op;
      tally.l1 += got.source == DataSource::L1 ? 1U : 0U;
      tally.l2 += got.source == DataSource::L2 ? 1U : 0U;
      tally.llc += got.source == DataSource::LLC ? 1U : 0U;
      tally.mem += got.llc_miss ? 1U : 0U;
      tally.prefetches += got.prefetch_issued ? 1U : 0U;
    } else if (kind < 86) {
      // Direct LLC fills, as occupancy monitoring and tests issue them.
      const bool evicted = llc_new.fill(paddr, owner);
      ASSERT_EQ(evicted, llc_ref.fill(paddr, owner)) << "op " << op;
      tally.direct_fills += 1;
      tally.evictions += evicted ? 1U : 0U;
    } else if (kind < 92) {
      // probe → install on one level equals access-then-fill.
      const CacheLevel::Probe probe = llc_new.probe(paddr, is_store);
      const bool hit = llc_ref.access(paddr, is_store);
      ASSERT_EQ(probe.hit, hit) << "op " << op;
      if (!hit) {
        ASSERT_EQ(llc_new.install(paddr, probe, owner),
                  llc_ref.fill(paddr, owner))
            << "op " << op;
      }
    } else if (kind < 96) {
      const bool absent = !llc_ref.contains(paddr);
      ASSERT_EQ(llc_new.contains(paddr), !absent) << "op " << op;
      if (absent) llc_ref.fill(paddr, owner);
      ASSERT_EQ(llc_new.fill_if_absent(paddr, owner), absent) << "op " << op;
    } else if (kind < 98) {
      hier_new.flush();
      hier_ref.flush();
    } else {
      for (std::uint32_t o = 0; o < 4; ++o) {
        ASSERT_EQ(llc_new.occupancy_lines(o), llc_ref.occupancy_lines(o));
      }
    }
    ASSERT_EQ(hier_new.prefetch_fills(), hier_ref.prefetch_fills());
    ASSERT_EQ(llc_new.dirty_evictions(), llc_ref.dirty_evictions());
    if (op % 97 == 0) {
      ASSERT_EQ(cache_bytes(hier_new, llc_new), cache_bytes(hier_ref, llc_ref))
          << "op " << op;
    }
  }
  ASSERT_EQ(cache_bytes(hier_new, llc_new), cache_bytes(hier_ref, llc_ref));
}

TEST(CacheDifferential, OnePassMatchesScanPerCallReference) {
  CacheDiffTally tally;
  std::uint64_t seed = 1;
  for (std::size_t g = 0; g < std::size(kGeometries); ++g) {
    for (const bool prefetch : {false, true}) {
      for (const bool seeded : {false, true}) {
        for (int rep = 0; rep < 3; ++rep, ++seed) {
          util::Rng pick(seed * 7919);
          const Geometry& l2 = kGeometries[pick.below(std::size(kGeometries))];
          const Geometry& llc =
              kGeometries[(g + seed) % std::size(kGeometries)];
          run_cache_differential(kGeometries[g], l2, llc, prefetch, seeded,
                                 seed, tally);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  // The streams must reach every source, the prefetcher and evictions.
  EXPECT_GT(tally.l1, 0U);
  EXPECT_GT(tally.l2, 0U);
  EXPECT_GT(tally.llc, 0U);
  EXPECT_GT(tally.mem, 0U);
  EXPECT_GT(tally.prefetches, 0U);
  EXPECT_GT(tally.evictions, 0U);
}

TEST(DataSource, Helpers) {
  EXPECT_TRUE(is_memory(DataSource::MemTier1));
  EXPECT_TRUE(is_memory(DataSource::MemTier2));
  EXPECT_FALSE(is_memory(DataSource::LLC));
  EXPECT_STREQ(to_string(DataSource::L1), "L1");
  EXPECT_STREQ(to_string(DataSource::MemTier2), "MemT2");
}

}  // namespace
}  // namespace tmprof::mem
