/// Randomized property tests: the substrates are checked against simple
/// reference models over thousands of random operations. These are the
/// tests most likely to catch structural bugs (aliasing, eviction, frame
/// accounting) that example-based tests miss.

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <unordered_set>

#include "core/ranking.hpp"
#include "mem/cache.hpp"
#include "mem/page_table.hpp"
#include "mem/tiers.hpp"
#include "pmu/events.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace tmprof {
namespace {

/// PageTable vs a std::map reference across random map/unmap/resolve.
class PageTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageTableFuzz, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  mem::PageTable table;
  // Reference: base VA -> (pfn, size).
  std::map<mem::VirtAddr, std::pair<mem::Pfn, mem::PageSize>> reference;
  const std::uint64_t kSpan4k = 1 << 14;   // candidate 4K page indices
  const std::uint64_t kSpan2m = 1 << 5;    // candidate 2M page indices

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t action = rng.below(10);
    if (action < 4) {
      // Map a random 4K page if free (and not covered by a huge page).
      const mem::VirtAddr va = rng.below(kSpan4k) * mem::kPageSize;
      const mem::VirtAddr huge_base = mem::page_base(va, mem::PageSize::k2M);
      const bool covered =
          reference.count(va) ||
          (reference.count(huge_base) &&
           reference[huge_base].second == mem::PageSize::k2M);
      if (!covered) {
        const mem::Pfn pfn = rng.below(1 << 20);
        table.map(va, pfn, mem::PageSize::k4K);
        reference[va] = {pfn, mem::PageSize::k4K};
      }
    } else if (action < 6) {
      // Map a random 2M page if its whole range is free.
      const mem::VirtAddr va = rng.below(kSpan2m) * mem::kHugePageSize;
      bool covered = false;
      for (const auto& [base, entry] : reference) {
        const std::uint64_t bytes = mem::page_bytes(entry.second);
        if (base < va + mem::kHugePageSize && va < base + bytes) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        const mem::Pfn pfn = rng.below(1 << 20) & ~(mem::kPagesPerHuge - 1);
        table.map(va, pfn, mem::PageSize::k2M);
        reference[va] = {pfn, mem::PageSize::k2M};
      }
    } else if (action < 8 && !reference.empty()) {
      // Unmap a random existing mapping.
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.below(reference.size())));
      table.unmap(it->first);
      reference.erase(it);
    } else {
      // Resolve a random address and compare against the reference.
      const mem::VirtAddr va =
          rng.below(kSpan4k * mem::kPageSize + (1ULL << 20));
      const mem::PteRef ref = table.resolve(va);
      const mem::VirtAddr base4k = mem::page_base(va, mem::PageSize::k4K);
      const mem::VirtAddr base2m = mem::page_base(va, mem::PageSize::k2M);
      if (reference.count(base4k) &&
          reference[base4k].second == mem::PageSize::k4K) {
        ASSERT_TRUE(ref);
        ASSERT_EQ(ref.pte->pfn(), reference[base4k].first);
        ASSERT_EQ(ref.size, mem::PageSize::k4K);
      } else if (reference.count(base2m) &&
                 reference[base2m].second == mem::PageSize::k2M) {
        ASSERT_TRUE(ref);
        ASSERT_EQ(ref.pte->pfn(), reference[base2m].first);
        ASSERT_EQ(ref.size, mem::PageSize::k2M);
      } else {
        ASSERT_FALSE(ref);
      }
    }
  }

  // Final sweep: walk() must enumerate exactly the reference mappings.
  std::map<mem::VirtAddr, std::pair<mem::Pfn, mem::PageSize>> walked;
  table.walk([&](mem::VirtAddr va, mem::PageSize size, mem::Pte& pte) {
    walked[va] = {pte.pfn(), size};
  });
  ASSERT_EQ(walked, reference);
  std::uint64_t expect_4k = 0, expect_2m = 0;
  for (const auto& [va, entry] : reference) {
    (entry.second == mem::PageSize::k4K ? expect_4k : expect_2m) += 1;
  }
  EXPECT_EQ(table.mapped_4k(), expect_4k);
  EXPECT_EQ(table.mapped_2m(), expect_2m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableFuzz,
                         ::testing::Values(1ULL, 77ULL, 20260707ULL));

/// PhysMemory vs reference invariants across random alloc/free.
class PhysMemoryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PhysMemoryFuzz, NoOverlapAndExactAccounting) {
  util::Rng rng(GetParam());
  mem::PhysMemory pm({mem::TierSpec{"fast", 3000, 80, 80},
                      mem::TierSpec{"slow", 5000, 300, 600}});
  struct Alloc {
    mem::Pfn head;
    mem::PageSize size;
  };
  std::vector<Alloc> live;
  std::unordered_set<mem::Pfn> owned_frames;
  std::uint64_t used[2] = {0, 0};

  for (int step = 0; step < 6000; ++step) {
    if (rng.chance(0.6)) {
      const bool huge = rng.chance(0.15);
      const auto size = huge ? mem::PageSize::k2M : mem::PageSize::k4K;
      const auto tier = static_cast<mem::TierId>(rng.below(2));
      const auto head = pm.alloc_exact(tier, 1, 0x1000, size);
      if (head) {
        const std::uint64_t span = mem::pages_in(size);
        if (huge) {
          ASSERT_EQ(*head % mem::kPagesPerHuge, 0U);
        }
        for (std::uint64_t i = 0; i < span; ++i) {
          // No frame may ever be handed out twice.
          ASSERT_TRUE(owned_frames.insert(*head + i).second);
          ASSERT_EQ(pm.tier_of(*head + i), tier);
        }
        used[tier] += span;
        live.push_back({*head, size});
      }
    } else if (!live.empty()) {
      const std::size_t idx = rng.below(live.size());
      const Alloc alloc = live[idx];
      live[idx] = live.back();
      live.pop_back();
      const auto tier = pm.tier_of(alloc.head);
      pm.free(alloc.head);
      const std::uint64_t span = mem::pages_in(alloc.size);
      for (std::uint64_t i = 0; i < span; ++i) {
        owned_frames.erase(alloc.head + i);
      }
      used[tier] -= span;
    }
    if (step % 512 == 0) {
      ASSERT_EQ(pm.used_frames(0), used[0]);
      ASSERT_EQ(pm.used_frames(1), used[1]);
    }
  }
  EXPECT_EQ(pm.used_frames(0) + pm.used_frames(1), owned_frames.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhysMemoryFuzz,
                         ::testing::Values(3ULL, 1234ULL));

/// CacheLevel vs an exact LRU reference model.
TEST(CacheFuzz, MatchesExactLruModel) {
  util::Rng rng(99);
  mem::CacheLevel cache(64 * 16, 4);  // 4 sets x 4 ways
  // Reference: per set, list of lines in LRU order (front = LRU).
  std::array<std::vector<std::uint64_t>, 4> sets;
  auto set_of = [](std::uint64_t line) { return line & 3; };

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t line = rng.below(64);
    const mem::PhysAddr paddr = line * mem::kLineSize;
    auto& set = sets[set_of(line)];
    const auto it = std::find(set.begin(), set.end(), line);
    if (rng.chance(0.5)) {
      // access(): hit iff resident; moves to MRU position.
      const bool hit = cache.access(paddr, false);
      ASSERT_EQ(hit, it != set.end()) << "line " << line;
      if (it != set.end()) {
        set.erase(it);
        set.push_back(line);
      }
    } else {
      cache.fill(paddr);
      if (it == set.end()) {
        if (set.size() == 4) set.erase(set.begin());  // evict LRU
        set.push_back(line);
      }
      // fill() of a resident line does not touch LRU order (returns early).
    }
  }
  // Every reference-resident line must be contained, and none beyond.
  std::uint64_t resident = 0;
  for (const auto& set : sets) resident += set.size();
  std::uint64_t contained = 0;
  for (std::uint64_t line = 0; line < 64; ++line) {
    if (cache.contains(line * mem::kLineSize)) ++contained;
  }
  EXPECT_EQ(contained, resident);
}

/// The counting protocol TmpDriver and TruthCollector run on their page
/// maps, driven by one random op stream (adds of skewed keys, shard folds in
/// the shard's slot order, swap-and-clear epoch closes) and cross-checked
/// against a std::unordered_map reference and a running total.
class PageCountFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageCountFuzz, EpochCloseAndShardFoldMatchReferenceModel) {
  util::Rng rng(GetParam());
  core::TruthMap current;
  core::TruthMap closed;
  std::uint64_t total = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  std::uint64_t reference_total = 0;
  auto key_of = [](std::uint64_t page) {
    return core::PageKey{static_cast<mem::Pid>(1 + page % 3),
                         page * mem::kPageSize};
  };

  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t action = rng.below(100);
    if (action < 96) {
      const std::uint64_t page = rng.below(2048);
      const std::uint64_t n = 1 + rng.below(4);
      current[key_of(page)] += n;
      total += n;
      reference[page] += n;
      reference_total += n;
    } else if (action < 98) {
      // Shard fold: accumulate a burst in a fresh shard map, then fold it
      // in mid-stream.
      core::TruthMap shard;
      const std::uint64_t burst = rng.below(200);
      for (std::uint64_t i = 0; i < burst; ++i) {
        const std::uint64_t page = rng.below(2048);
        ++shard[key_of(page)];
        reference[page] += 1;
        reference_total += 1;
      }
      for (const auto& [key, count] : shard) {
        current[key] += count;
        total += count;
      }
      shard.clear();
      ASSERT_TRUE(shard.empty());
    } else {
      // Epoch close: the swapped-out map and the total match the reference,
      // and the recycled accumulator starts empty.
      ASSERT_EQ(total, reference_total);
      closed.swap(current);
      current.clear();
      total = 0;
      ASSERT_TRUE(current.empty());
      ASSERT_EQ(closed.size(), reference.size());
      for (const auto& [page, count] : reference) {
        const auto it = closed.find(key_of(page));
        ASSERT_NE(it, closed.end());
        ASSERT_EQ(it->second, count);
      }
      reference.clear();
      reference_total = 0;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCountFuzz,
                         ::testing::Values(11ULL, 4096ULL, 20260807ULL));

/// The first-touch seen-set (a core::PageSet) driven by one random
/// insert/query stream, cross-checked against std::unordered_set: insert
/// reports exactly the truly new keys and membership never errs.
class PageSetFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageSetFuzz, MembershipMatchesReferenceModel) {
  util::Rng rng(GetParam());
  core::PageSet set;
  std::unordered_set<std::uint64_t> reference;
  auto key_of = [](std::uint64_t page) {
    return core::PageKey{static_cast<mem::Pid>(1 + page % 5),
                         page * mem::kPageSize};
  };

  for (int step = 0; step < 40000; ++step) {
    const std::uint64_t page = rng.below(4000);
    if (rng.chance(0.7)) {
      const bool truly_new = reference.insert(page).second;
      ASSERT_EQ(set.insert(key_of(page)), truly_new);
    } else {
      ASSERT_EQ(set.contains(key_of(page)), reference.count(page) != 0);
    }
  }
  ASSERT_EQ(set.size(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageSetFuzz,
                         ::testing::Values(21ULL, 555ULL));

/// Whole-system determinism: identical configs and seeds give bit-equal
/// simulations (the property the Oracle pre-pass relies on).
TEST(SystemFuzz, FullSystemDeterminism) {
  auto run = [] {
    sim::SimConfig cfg;
    cfg.cores = 3;
    cfg.llc_bytes = 1 << 19;
    cfg.tier1_frames = 1 << 12;
    cfg.tier2_frames = 1 << 15;
    cfg.instruction_fetch = true;
    sim::System sys(cfg);
    const auto spec = workloads::find_spec("data_caching", 0.1);
    for (std::uint32_t i = 0; i < spec.processes; ++i) {
      sys.add_process(workloads::make_workload(spec, i, 7));
    }
    sys.step(60000);
    std::vector<std::uint64_t> fingerprint;
    for (std::size_t e = 0; e < pmu::kEventCount; ++e) {
      fingerprint.push_back(
          sys.pmu().truth_total(static_cast<pmu::Event>(e)));
    }
    fingerprint.push_back(sys.now());
    fingerprint.push_back(sys.phys().used_frames(0));
    fingerprint.push_back(sys.phys().used_frames(1));
    return fingerprint;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace tmprof
