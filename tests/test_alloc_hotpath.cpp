/// Zero-allocation invariant for the epoch hot path.
///
/// This file replaces the global allocation functions with counting
/// wrappers, so it lives in its own test binary (tmprof_alloc_tests):
/// linking it into tmprof_tests would shadow sanitizer new/delete
/// interceptors for every other test.
///
/// The invariant under test: after warmup (capacity growth) the
/// collector + ranking epoch loop performs ZERO heap allocations — the
/// flat maps retain their slot arrays across clear(), the swap-and-clear
/// protocol recycles buffers, and build_ranking_into reuses its scratch.
/// The same holds for a mover reconcile that needs no demotion.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/ranking.hpp"
#include "monitors/event.hpp"
#include "sim/system.hpp"
#include "tiering/epoch.hpp"
#include "tiering/mover.hpp"
#include "workloads/synthetic.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tmprof {
namespace {

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 8192;
  cfg.tier2_frames = 8192;
  return cfg;
}

monitors::MemOpEvent event_for(std::uint64_t page) {
  monitors::MemOpEvent ev;
  ev.pid = 1;
  ev.vaddr = page * mem::kPageSize + (page % 64) * 8;
  ev.source = mem::DataSource::MemTier1;  // counts toward truth
  return ev;
}

/// Run the counted section with no gtest machinery inside it.
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  fn();
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(AllocHotpath, FlatMapClearRefillAllocatesNothing) {
  core::PageCountMap map;
  constexpr std::uint64_t kPages = 4096;
  for (std::uint64_t p = 0; p < kPages; ++p) {
    map[core::PageKey{1, p * mem::kPageSize}] += 1;  // warmup growth
  }
  const std::uint64_t allocs = allocations_in([&map] {
    for (int epoch = 0; epoch < 5; ++epoch) {
      map.clear();
      for (std::uint64_t p = 0; p < kPages; ++p) {
        map[core::PageKey{1, p * mem::kPageSize}] += 1;
      }
    }
  });
  EXPECT_EQ(allocs, 0U);
}

TEST(AllocHotpath, CollectorSteadyStateAllocatesNothing) {
  sim::System system(small_config());
  tiering::TruthCollector collector(system);
  core::TruthMap truth;
  std::vector<core::PageKey> new_pages;
  constexpr std::uint64_t kPages = 2048;

  auto run_epoch = [&] {
    for (std::uint64_t p = 0; p < kPages; ++p) {
      collector.on_mem_op(event_for(p));
      collector.on_mem_op(event_for(p));  // repeat hits exercise increments
    }
    collector.end_epoch(truth, new_pages);
  };

  for (int i = 0; i < 3; ++i) run_epoch();  // warmup: grow all buffers

  const std::uint64_t allocs = allocations_in([&] {
    for (int i = 0; i < 5; ++i) run_epoch();
  });
  EXPECT_EQ(allocs, 0U);
  EXPECT_EQ(truth.size(), kPages);  // the loop really did the work
}

TEST(AllocHotpath, RankingBuildSteadyStateAllocatesNothing) {
  core::EpochObservation obs;
  core::RankingScratch scratch;
  std::vector<core::PageRank> ranking;
  constexpr std::uint64_t kPages = 2048;

  auto fill_obs = [&obs] {
    obs.clear();
    for (std::uint64_t p = 0; p < kPages; ++p) {
      const core::PageKey key{1, p * mem::kPageSize};
      obs.abit[key] += 1;
      if (p % 2 == 0) obs.trace[key] += static_cast<std::uint32_t>(p % 7);
    }
  };

  // Warmup grows the observation maps, the merge scratch and the output.
  for (int i = 0; i < 2; ++i) {
    fill_obs();
    core::build_ranking_into(obs, core::FusionMode::Sum, 1.0, scratch, ranking);
  }

  const std::uint64_t allocs = allocations_in([&] {
    for (int i = 0; i < 5; ++i) {
      fill_obs();
      core::build_ranking_into(obs, core::FusionMode::Sum, 1.0, scratch,
                               ranking);
    }
  });
  EXPECT_EQ(allocs, 0U);
  EXPECT_EQ(ranking.size(), kPages);
}

TEST(AllocHotpath, ObservationSwapClearRecyclesCapacity) {
  // The driver's end_epoch_into protocol: out.swap(current); current.clear().
  core::EpochObservation current;
  core::EpochObservation closed;
  constexpr std::uint64_t kPages = 1024;

  auto one_epoch = [&] {
    for (std::uint64_t p = 0; p < kPages; ++p) {
      current.abit[core::PageKey{1, p * mem::kPageSize}] += 1;
      current.trace[core::PageKey{1, p * mem::kPageSize}] += 1;
    }
    closed.swap(current);
    current.clear();
  };

  for (int i = 0; i < 3; ++i) one_epoch();  // warmup: both buffers sized

  const std::uint64_t allocs = allocations_in([&] {
    for (int i = 0; i < 6; ++i) one_epoch();
  });
  EXPECT_EQ(allocs, 0U);
  EXPECT_EQ(closed.abit.size(), kPages);
}

TEST(AllocHotpath, MoverReconcileWithoutDemotionAllocatesNothing) {
  // Tier 0 holds every page, so no reconcile needs room: the mover must
  // neither enumerate residents nor build a demotion order, and its
  // per-apply memos retain capacity.
  sim::System system(small_config());
  const mem::Pid pid = system.add_process(
      std::make_unique<workloads::UniformWorkload>(16 << 20, 0.0, 1));
  sim::Process& proc = system.process(pid);
  constexpr std::uint64_t kPages = 2048;
  std::vector<core::PageRank> ranking;
  tiering::PlacementSet desired;
  for (std::uint64_t p = 0; p < kPages; ++p) {
    const mem::VirtAddr va = proc.vaddr_of(p * mem::kPageSize);
    system.access(proc, va, false, 1);
    core::PageRank pr;
    pr.key = core::PageKey{pid, va};
    pr.rank = kPages - p;
    ranking.push_back(pr);
    if (p % 2 == 0) desired.insert(pr.key);
  }
  tiering::PageMover mover(system);
  for (int i = 0; i < 3; ++i) (void)mover.apply_placement(desired, ranking);

  tiering::MoveStats total;
  const std::uint64_t allocs = allocations_in([&] {
    for (int i = 0; i < 5; ++i) {
      total.merge(mover.apply_placement(desired, ranking));
    }
  });
  EXPECT_EQ(allocs, 0U);
  EXPECT_EQ(total.promoted + total.demoted, 0U);
}

}  // namespace
}  // namespace tmprof
