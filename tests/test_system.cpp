#include "sim/system.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "pmu/events.hpp"
#include "sim/schedule.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::sim {
namespace {

SimConfig small_config() {
  SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 20;
  cfg.tier1_frames = 256;
  cfg.tier2_frames = 4096;
  return cfg;
}

TEST(System, FirstTouchAllocatesAndMaps) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  const AccessResult r = sys.access(proc, proc.vaddr_of(0), false, 1);
  EXPECT_TRUE(r.page_fault);
  EXPECT_EQ(r.tlb, mem::TlbHit::Miss);
  EXPECT_TRUE(proc.page_table().resolve(proc.vaddr_of(0)));
  EXPECT_EQ(proc.rss_pages(), 1U);
  EXPECT_EQ(sys.phys().used_frames(0), 1U);
}

TEST(System, SecondAccessHitsTlbAndCache) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  sys.access(proc, proc.vaddr_of(64), false, 1);
  const AccessResult r = sys.access(proc, proc.vaddr_of(64), false, 1);
  EXPECT_FALSE(r.page_fault);
  EXPECT_EQ(r.tlb, mem::TlbHit::L1);
  EXPECT_EQ(r.source, mem::DataSource::L1);
}

TEST(System, PmuTracksTheAccessStream) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.3, 7));
  (void)pid;
  sys.step(5000);
  auto& pmu = sys.pmu();
  using pmu::Event;
  EXPECT_EQ(pmu.truth_total(Event::RetiredLoads) +
                pmu.truth_total(Event::RetiredStores),
            5000U);
  EXPECT_GT(pmu.truth_total(Event::DtlbWalk), 0U);
  EXPECT_GT(pmu.truth_total(Event::LlcMiss), 0U);
  EXPECT_GT(pmu.truth_total(Event::PageFault), 0U);
  // A-bit transitions can't exceed walks.
  EXPECT_LE(pmu.truth_total(Event::PtwAbitSet),
            pmu.truth_total(Event::DtlbWalk));
}

TEST(System, TimeAdvancesMonotonically) {
  System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 18, 0.0, 3));
  const util::SimNs t0 = sys.now();
  const util::SimNs spent = sys.step(100);
  EXPECT_GT(spent, 0U);
  EXPECT_EQ(sys.now(), t0 + spent);
  sys.advance_time(500);
  EXPECT_EQ(sys.now(), t0 + spent + 500);
}

TEST(System, StoresSetDirtyExactlyOncePerPage) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  sys.access(proc, proc.vaddr_of(0), true, 1);
  sys.access(proc, proc.vaddr_of(8), true, 1);
  sys.access(proc, proc.vaddr_of(16), true, 1);
  EXPECT_EQ(sys.pmu().truth_total(pmu::Event::PtwDbitSet), 1U);
  EXPECT_TRUE(proc.page_table().resolve(proc.vaddr_of(0)).pte->dirty());
}

TEST(System, DirtySetOnTlbHitStillUpdatesPte) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  sys.access(proc, proc.vaddr_of(0), false, 1);  // load fills TLB, D=0
  const AccessResult r = sys.access(proc, proc.vaddr_of(0), true, 1);
  EXPECT_EQ(r.tlb, mem::TlbHit::L1);
  EXPECT_TRUE(proc.page_table().resolve(proc.vaddr_of(0)).pte->dirty());
}

TEST(System, ShootdownInvalidatesAllCores) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  sys.access(proc, proc.vaddr_of(0), false, 1);
  const mem::VirtAddr page = proc.vaddr_of(0) & ~(mem::kPageSize - 1);
  sys.shootdown(pid, page, mem::PageSize::k4K);
  const std::uint32_t core = pid % sys.config().cores;
  EXPECT_EQ(sys.tlb(core).lookup(pid, proc.vaddr_of(0)).level,
            mem::TlbHit::Miss);
  EXPECT_GT(sys.pmu().truth_total(pmu::Event::TlbShootdownIpi), 0U);
}

TEST(System, MigrationMovesFrameAndPreservesData) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  sys.access(proc, proc.vaddr_of(0), false, 1);
  const mem::VirtAddr page = proc.vaddr_of(0) & ~(mem::kPageSize - 1);
  const mem::Pfn before = proc.page_table().resolve(page).pte->pfn();
  EXPECT_EQ(sys.phys().tier_of(before), 0);
  ASSERT_TRUE(sys.migrate_page(pid, page, 1));
  const mem::Pfn after = proc.page_table().resolve(page).pte->pfn();
  EXPECT_EQ(sys.phys().tier_of(after), 1);
  EXPECT_FALSE(sys.phys().frame(before).allocated);
  EXPECT_EQ(sys.phys().frame(after).page_va, page);
  // Next access takes a TLB miss (shootdown) but no fault, and reads tier2.
  const AccessResult r = sys.access(proc, proc.vaddr_of(0), false, 1);
  EXPECT_EQ(r.tlb, mem::TlbHit::Miss);
  EXPECT_FALSE(r.page_fault);
}

TEST(System, MigrateToSameTierIsNoop) {
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  sys.access(proc, proc.vaddr_of(0), false, 1);
  const mem::VirtAddr page = proc.vaddr_of(0) & ~(mem::kPageSize - 1);
  EXPECT_TRUE(sys.migrate_page(pid, page, 0));
  EXPECT_EQ(sys.pmu().truth_total(pmu::Event::PageMigration), 0U);
}

TEST(System, SpillToTier2WhenTier1Full) {
  SimConfig cfg = small_config();
  cfg.tier1_frames = 2;
  System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::SequentialWorkload>(1 << 16, 4096, 0.0, 1));
  (void)pid;
  sys.step(16);  // touches 16 distinct pages
  EXPECT_EQ(sys.phys().used_frames(0), 2U);
  EXPECT_GT(sys.phys().used_frames(1), 0U);
  EXPECT_GT(sys.pmu().truth_total(pmu::Event::MemReadTier2), 0U);
}

TEST(System, WeightedSchedulingSkewsOps) {
  System sys(small_config());
  const mem::Pid heavy = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1), 8.0);
  const mem::Pid light = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 2), 1.0);
  sys.step(900);
  EXPECT_GT(sys.process(heavy).ops_issued(),
            sys.process(light).ops_issued() * 4);
}

TEST(System, ObserverSeesEveryMemOp) {
  struct Counter final : monitors::AccessObserver {
    std::uint64_t ops = 0;
    void on_mem_op(const monitors::MemOpEvent&) override { ++ops; }
  } counter;
  System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  sys.add_observer(&counter);
  sys.step(123);
  EXPECT_EQ(counter.ops, 123U);
  sys.remove_observer(&counter);
  sys.step(10);
  EXPECT_EQ(counter.ops, 123U);
}

TEST(System, StepParallelRejectsObserverWithoutShardSink) {
  // An observer without a shard sink keeps global state in the access
  // path, so it cannot run on shard threads: the sharded engine refuses it
  // before executing any op.
  struct Counter final : monitors::AccessObserver {
    std::uint64_t ops = 0;
    void on_mem_op(const monitors::MemOpEvent&) override { ++ops; }
  } counter;
  SimConfig cfg = small_config();
  cfg.sharded_engine = true;
  System sys(cfg);
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  sys.add_observer(&counter);
  EXPECT_THROW(sys.step_parallel(100, nullptr), util::AssertionError);
  EXPECT_EQ(counter.ops, 0U);
  sys.remove_observer(&counter);
  EXPECT_GT(sys.step_parallel(100, nullptr), 0U);
  EXPECT_EQ(sys.total_ops(), 100U);
}

}  // namespace
}  // namespace tmprof::sim

namespace tmprof::sim {
namespace {

TEST(SystemIfetch, CodePagesMappedAndItlbCounted) {
  SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 20;
  cfg.tier1_frames = 4096;
  cfg.tier2_frames = 4096;
  cfg.instruction_fetch = true;
  System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  sys.step(1000);
  // Code pages were demand-mapped below the heap and A bits set on them.
  Process& proc = sys.process(pid);
  bool saw_code_page = false;
  proc.page_table().walk(
      [&](mem::VirtAddr va, mem::PageSize size, mem::Pte&) {
        if (va < proc.heap_base()) {
          saw_code_page = true;
          EXPECT_EQ(size, mem::PageSize::k4K);
        }
      });
  EXPECT_TRUE(saw_code_page);
  EXPECT_GT(sys.pmu().truth_total(pmu::Event::ItlbWalk), 0U);
}

TEST(SystemIfetch, DisabledByDefault) {
  SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 20;
  cfg.tier1_frames = 4096;
  cfg.tier2_frames = 4096;
  System sys(cfg);
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  sys.step(1000);
  EXPECT_EQ(sys.pmu().truth_total(pmu::Event::ItlbWalk), 0U);
}

TEST(SystemIfetch, FetchTranslationsCacheInTlb) {
  SimConfig cfg;
  cfg.cores = 1;
  cfg.llc_bytes = 1 << 20;
  cfg.tier1_frames = 4096;
  cfg.tier2_frames = 4096;
  cfg.instruction_fetch = true;
  System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 14, 0.0, 1));
  Process& proc = sys.process(pid);
  // Same ip every time: the second fetch must not walk again.
  sys.access(proc, proc.vaddr_of(0), false, /*ip=*/1);
  const std::uint64_t walks = sys.pmu().truth_total(pmu::Event::ItlbWalk);
  sys.access(proc, proc.vaddr_of(64), false, /*ip=*/1);
  EXPECT_EQ(sys.pmu().truth_total(pmu::Event::ItlbWalk), walks);
}

// Differential check of the sharded engine's per-shard walk against the
// walk it replaced: every shard scanning all `ops` schedule positions from
// the cursor and running only its own processes.
TEST(ShardSchedule, WalkMatchesFullScheduleWalk) {
  util::Rng rng(0x5c4edULL);
  for (int trial = 0; trial < 400; ++trial) {
    const auto n_procs = static_cast<std::uint32_t>(1 + rng.below(13));
    const auto shards = static_cast<std::uint32_t>(1 + rng.below(8));
    std::vector<double> weights;
    for (std::uint32_t i = 0; i < n_procs; ++i) {
      weights.push_back(0.25 * static_cast<double>(1 + rng.below(16)));
    }
    const std::vector<std::uint32_t> schedule = weighted_schedule(weights);
    const std::size_t len = schedule.size();
    // Consecutive pids round-robin over the shards, as System assigns
    // them; or a random split, which often leaves a shard with no process.
    std::vector<std::uint32_t> shard_of;
    const auto first_pid = static_cast<std::uint32_t>(rng.below(1000));
    const bool random_split = rng.below(2) == 0;
    for (std::uint32_t i = 0; i < n_procs; ++i) {
      shard_of.push_back(random_split
                             ? static_cast<std::uint32_t>(rng.below(shards))
                             : (first_pid + i) % shards);
    }
    ShardSchedule split;
    split.rebuild(schedule, shard_of, shards);
    std::size_t cursor = rng.below(len);
    for (int step = 0; step < 6; ++step) {
      // Below one turn of the schedule, several turns plus a partial
      // window, or an exact multiple of the length.
      const std::uint64_t turns = rng.below(4);
      const std::uint64_t ops =
          turns * len + (rng.below(3) == 0 ? 0 : rng.below(len));
      std::vector<std::vector<std::uint32_t>> want(shards);
      std::size_t at = cursor;
      for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint32_t proc = schedule[at];
        at = at + 1 == len ? 0 : at + 1;
        want[shard_of[proc]].push_back(proc);
      }
      std::uint64_t executed = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        std::vector<std::uint32_t> got;
        split.walk(s, cursor, ops,
                   [&got](std::uint32_t p) { got.push_back(p); });
        EXPECT_EQ(got, want[s]) << "trial " << trial << " step " << step
                                << " shard " << s << " cursor " << cursor
                                << " ops " << ops;
        executed += got.size();
      }
      EXPECT_EQ(executed, ops) << "trial " << trial << " step " << step;
      cursor = (cursor + ops) % len;  // wraps across steps
    }
  }
}

}  // namespace
}  // namespace tmprof::sim
