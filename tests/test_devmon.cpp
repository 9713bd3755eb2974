/// Device-side hotness monitor tests (docs/TOPOLOGY.md): counter-array
/// semantics (slow-tier-only counting, saturation, top-K tie order,
/// space-saving replacement, decay), SumDev/DevOnly ranking fusion, and
/// end-to-end thread-count invariance with DevMon feeding the daemon over
/// an explicit three-tier chain.

#include "monitors/devmon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/ranking.hpp"
#include "tiering/runner.hpp"
#include "util/ckpt.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace tmprof::monitors {
namespace {

/// 4-frame DRAM, 8-frame CXL, 8-frame NVM: pfn 0..3 are on the fast tier
/// (no device counter), 4..11 on tier 1's device, 12..19 on tier 2's.
mem::PhysMemory three_tier_phys() {
  return mem::PhysMemory({mem::TierSpec{"dram", 4, 80, 80, 0},
                          mem::TierSpec{"cxl", 8, 150, 200, 0},
                          mem::TierSpec{"nvm", 8, 300, 600, 0}});
}

MemOpEvent fill(mem::Pfn pfn, std::uint32_t core = 0,
                mem::DataSource source = mem::DataSource::MemTier2) {
  MemOpEvent ev;
  ev.core = core;
  ev.paddr = static_cast<mem::PhysAddr>(pfn) << mem::kPageShift;
  ev.source = source;
  return ev;
}

/// Drain the monitor once, collecting every report entry it emits.
std::vector<DevMonReportEntry> drain_once(DevMonitor& mon) {
  std::vector<DevMonReportEntry> out;
  mon.set_drain([&out](std::span<const DevMonReportEntry> report) {
    out.insert(out.end(), report.begin(), report.end());
  });
  mon.drain();
  return out;
}

TEST(DevMon, CountsOnlySlowTierMemoryFills) {
  const mem::PhysMemory phys = three_tier_phys();
  ASSERT_EQ(phys.tier_of(1), 0);
  ASSERT_EQ(phys.tier_of(5), 1);
  ASSERT_EQ(phys.tier_of(13), 2);
  DevMonConfig cfg;
  cfg.enabled = true;
  DevMonitor mon(cfg, phys, 1);
  mon.on_mem_op(fill(1));                            // fast tier: no device
  mon.on_mem_op(fill(5, 0, mem::DataSource::LLC));   // cache hit: not a fill
  mon.on_mem_op(fill(5));
  mon.on_mem_op(fill(5));
  mon.on_mem_op(fill(13));
  const auto report = drain_once(mon);
  EXPECT_EQ(mon.observed(), 3U);
  EXPECT_EQ(mon.occupied(0), 0U);
  // The drain halved both counters: 2 -> 1 keeps pfn 5's slot, 1 -> 0
  // frees pfn 13's.
  EXPECT_EQ(mon.occupied(1), 1U);
  EXPECT_EQ(mon.occupied(2), 0U);
  ASSERT_EQ(report.size(), 2U);
  EXPECT_EQ(report[0].pfn, 5U);
  EXPECT_EQ(report[0].count, 2U);
  EXPECT_EQ(report[0].tier, 1);
  EXPECT_EQ(report[1].pfn, 13U);
  EXPECT_EQ(report[1].count, 1U);
  EXPECT_EQ(report[1].tier, 2);
}

TEST(DevMon, CounterSaturatesAtConfiguredMax) {
  const mem::PhysMemory phys = three_tier_phys();
  DevMonConfig cfg;
  cfg.enabled = true;
  DevMonitor mon(cfg, phys, 1);
  for (int i = 0; i < 70000; ++i) mon.on_mem_op(fill(5));
  const auto report = drain_once(mon);
  ASSERT_EQ(report.size(), 1U);
  EXPECT_EQ(report[0].count, 65535U);  // a 16-bit hardware counter
  EXPECT_EQ(mon.observed(), 70000U);   // the stat counts raw fills
}

TEST(DevMon, TopKTruncatesWithAscendingPfnTieBreak) {
  const mem::PhysMemory phys = three_tier_phys();
  DevMonConfig cfg;
  cfg.enabled = true;
  cfg.top_k = 2;
  DevMonitor mon(cfg, phys, 1);
  for (const mem::Pfn pfn : {7U, 5U, 6U}) {  // arrival order must not matter
    for (int i = 0; i < 3; ++i) mon.on_mem_op(fill(pfn));
  }
  const auto report = drain_once(mon);
  ASSERT_EQ(report.size(), 2U);  // three tied slots, top-2 reported
  EXPECT_EQ(report[0].pfn, 5U);
  EXPECT_EQ(report[1].pfn, 6U);
  EXPECT_EQ(mon.reported(), 2U);
}

TEST(DevMon, SpaceSavingEvictionInheritsVictimCount) {
  const mem::PhysMemory phys = three_tier_phys();
  DevMonConfig cfg;
  cfg.enabled = true;
  cfg.slots = 2;
  DevMonitor mon(cfg, phys, 1);
  // Folded in ascending-pfn order: 5 (count 5) and 6 (count 2) claim the
  // two slots; 7 (count 1) evicts the coldest (6) and inherits its count.
  for (int i = 0; i < 5; ++i) mon.on_mem_op(fill(5));
  for (int i = 0; i < 2; ++i) mon.on_mem_op(fill(6));
  mon.on_mem_op(fill(7));
  const auto report = drain_once(mon);
  EXPECT_EQ(mon.evictions(), 1U);
  ASSERT_EQ(report.size(), 2U);
  EXPECT_EQ(report[0].pfn, 5U);
  EXPECT_EQ(report[0].count, 5U);
  EXPECT_EQ(report[1].pfn, 7U);
  EXPECT_EQ(report[1].count, 3U);  // 2 inherited + 1 of its own
}

TEST(DevMon, DecayHalvesCountersAndFreesDeadSlots) {
  const mem::PhysMemory phys = three_tier_phys();
  DevMonConfig cfg;
  cfg.enabled = true;
  DevMonitor mon(cfg, phys, 1);
  for (int i = 0; i < 3; ++i) mon.on_mem_op(fill(5));
  auto report = drain_once(mon);
  ASSERT_EQ(report.size(), 1U);
  EXPECT_EQ(report[0].count, 3U);   // reported before decay
  report = drain_once(mon);         // no new fills: 3 >> 1 = 1 survives
  ASSERT_EQ(report.size(), 1U);
  EXPECT_EQ(report[0].count, 1U);
  report = drain_once(mon);         // 1 >> 1 = 0: slot freed, nothing left
  EXPECT_TRUE(report.empty());
  EXPECT_EQ(mon.occupied(1), 0U);
  EXPECT_EQ(mon.drains(), 3U);
}

TEST(DevMon, LaneMergeIsCoreAssignmentInvariant) {
  const mem::PhysMemory phys = three_tier_phys();
  DevMonConfig cfg;
  cfg.enabled = true;
  DevMonitor spread(cfg, phys, 4);
  DevMonitor packed(cfg, phys, 4);
  // The same multiset of fills, tallied on 4 cores vs all on core 0, must
  // fold to the same device arrays (merge is ascending core, ascending pfn).
  std::uint32_t core = 0;
  for (const mem::Pfn pfn : {9U, 4U, 13U, 9U, 17U, 4U, 9U, 13U}) {
    spread.on_mem_op(fill(pfn, core));
    packed.on_mem_op(fill(pfn, 0));
    core = (core + 1) % 4;
  }
  const auto a = drain_once(spread);
  const auto b = drain_once(packed);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pfn, b[i].pfn) << i;
    EXPECT_EQ(a[i].count, b[i].count) << i;
    EXPECT_EQ(a[i].tier, b[i].tier) << i;
  }
  EXPECT_EQ(spread.observed(), packed.observed());
}

// ---------------------------------------------------------------------------
// Differential check of the indexed fold against the linear scan it
// replaced: the reference model below keeps the scan (match, first free
// slot, first strict minimum) and writes the monitor's checkpoint layout,
// so equal images mean equal slots, lanes and statistics.

class ScanDevMon {
 public:
  ScanDevMon(const DevMonConfig& config, const mem::PhysMemory& phys,
             std::uint32_t cores)
      : config_(config), phys_(&phys), lanes_(cores),
        devices_(phys.tier_count()) {
    for (std::size_t t = 1; t < devices_.size(); ++t) {
      devices_[t].resize(config.slots);
    }
  }

  void on_mem_op(const MemOpEvent& event) {
    if (!mem::is_memory(event.source)) return;
    const mem::Pfn pfn = mem::pfn_of(event.paddr);
    if (phys_->tier_of(pfn) == 0) return;
    ++lanes_[event.core].counts[pfn];
    ++lanes_[event.core].observed;
  }

  void merge_lanes() {
    for (Lane& lane : lanes_) {
      observed_ += lane.observed;
      lane.observed = 0;
      for (const auto& [pfn, add] : lane.counts) {  // ascending pfn
        fold(devices_[phys_->tier_of(pfn)], pfn, add);
      }
      lane.counts.clear();
    }
  }

  std::vector<DevMonReportEntry> drain() {
    merge_lanes();
    ++drains_;
    std::vector<DevMonReportEntry> out;
    for (std::size_t t = 1; t < devices_.size(); ++t) {
      std::vector<DevMonReportEntry> report;
      for (const Slot& s : devices_[t]) {
        if (s.used) {
          report.push_back({s.pfn, s.count, static_cast<mem::TierId>(t)});
        }
      }
      std::sort(report.begin(), report.end(),
                [](const DevMonReportEntry& a, const DevMonReportEntry& b) {
                  if (a.count != b.count) return a.count > b.count;
                  return a.pfn < b.pfn;
                });
      if (report.size() > config_.top_k) report.resize(config_.top_k);
      reported_ += report.size();
      out.insert(out.end(), report.begin(), report.end());
      for (Slot& s : devices_[t]) {
        if (!s.used) continue;
        s.count >>= 1;
        if (s.count == 0) s.used = false;
      }
    }
    return out;
  }

  std::vector<std::uint8_t> image() const {
    util::ckpt::Writer w;
    w.begin_section("devmon");
    w.put_u32(config_.slots);
    w.put_u32(config_.top_k);
    w.put_u64(devices_.size());
    for (std::size_t t = 1; t < devices_.size(); ++t) {
      for (const Slot& s : devices_[t]) {
        w.put_bool(s.used);
        w.put_u64(s.pfn);
        w.put_u32(s.count);
      }
    }
    w.put_u64(observed_);
    w.put_u64(evictions_);
    w.put_u64(reported_);
    w.put_u64(drains_);
    w.put_u64(lanes_.size());
    for (const Lane& lane : lanes_) {
      w.put_u64(lane.observed);
      w.put_u64(lane.counts.size());
      for (const auto& [pfn, count] : lane.counts) {
        w.put_u64(pfn);
        w.put_u32(count);
      }
    }
    w.end_section();
    return w.finish();
  }

  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Slot {
    mem::Pfn pfn = 0;
    std::uint32_t count = 0;
    bool used = false;
  };
  struct Lane {
    std::map<std::uint64_t, std::uint32_t> counts;
    std::uint64_t observed = 0;
  };

  void fold(std::vector<Slot>& device, mem::Pfn pfn, std::uint32_t add) {
    Slot* free_slot = nullptr;
    Slot* min_slot = nullptr;
    for (Slot& s : device) {
      if (s.used) {
        if (s.pfn == pfn) {
          s.count = static_cast<std::uint32_t>(std::min<std::uint64_t>(
              std::uint64_t{s.count} + add, kDevMonCounterMax));
          return;
        }
        if (min_slot == nullptr || s.count < min_slot->count) min_slot = &s;
      } else if (free_slot == nullptr) {
        free_slot = &s;
      }
    }
    if (free_slot != nullptr) {
      free_slot->used = true;
      free_slot->pfn = pfn;
      free_slot->count = std::min(add, kDevMonCounterMax);
      return;
    }
    ++evictions_;
    min_slot->pfn = pfn;
    min_slot->count = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        std::uint64_t{min_slot->count} + add, kDevMonCounterMax));
  }

  DevMonConfig config_;
  const mem::PhysMemory* phys_;
  std::vector<Lane> lanes_;
  std::vector<std::vector<Slot>> devices_;
  std::uint64_t observed_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t reported_ = 0;
  std::uint64_t drains_ = 0;
};

std::vector<std::uint8_t> image_of(const DevMonitor& mon) {
  util::ckpt::Writer w;
  w.begin_section("devmon");
  mon.save_state(w);
  w.end_section();
  return w.finish();
}

TEST(DevMonDifferential, IndexedFoldMatchesLinearScan) {
  // 4-frame fast tier, then two 48-frame devices: pfn 4..51 and 52..99.
  const mem::PhysMemory phys({mem::TierSpec{"dram", 4, 80, 80, 0},
                              mem::TierSpec{"cxl", 48, 150, 200, 0},
                              mem::TierSpec{"nvm", 48, 300, 600, 0}});
  util::Rng rng(0xd1ffULL);
  for (int trial = 0; trial < 60; ++trial) {
    DevMonConfig cfg;
    cfg.enabled = true;
    cfg.slots = 1 + static_cast<std::uint32_t>(rng.below(12));
    cfg.top_k = 1 + static_cast<std::uint32_t>(rng.below(cfg.slots + 2));
    const auto cores = 1 + static_cast<std::uint32_t>(rng.below(3));
    // A narrow pfn window keeps ties dense; a wide one forces evictions.
    const std::uint64_t window = 2 + rng.below(94);
    // Every fourth trial drives counters to kDevMonCounterMax: saturated,
    // tied slots then go through eviction, lane merges and resume.
    const bool saturating = trial % 4 == 0;
    auto mon = std::make_unique<DevMonitor>(cfg, phys, cores);
    ScanDevMon ref(cfg, phys, cores);
    std::vector<DevMonReportEntry> got;
    mon->set_drain([&got](std::span<const DevMonReportEntry> report) {
      got.insert(got.end(), report.begin(), report.end());
    });
    const std::string label = "trial " + std::to_string(trial);
    bool saw_saturated = false;
    const auto send = [&](mem::Pfn pfn, std::uint32_t core) {
      mon->on_mem_op(fill(pfn, core));
      ref.on_mem_op(fill(pfn, core));
    };
    // More fills than the counter holds, on one device pfn and one core.
    const auto burst = [&] {
      const mem::Pfn pfn = 4 + rng.below(window);
      const auto core = static_cast<std::uint32_t>(rng.below(cores));
      const std::uint64_t fills = kDevMonCounterMax + 1 + rng.below(3);
      for (std::uint64_t i = 0; i < fills; ++i) send(pfn, core);
    };
    const auto check_drain = [&](int step) {
      got.clear();
      mon->drain();
      const std::vector<DevMonReportEntry> want = ref.drain();
      ASSERT_EQ(got.size(), want.size()) << label << " step " << step;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].pfn, want[i].pfn) << label << " entry " << i;
        EXPECT_EQ(got[i].count, want[i].count) << label << " entry " << i;
        EXPECT_EQ(got[i].tier, want[i].tier) << label << " entry " << i;
        saw_saturated |= got[i].count == kDevMonCounterMax;
      }
    };
    if (saturating) {
      // Up to slots + 2 saturated pfns, so saturated victims get evicted.
      const std::uint64_t pfns = 1 + rng.below(cfg.slots + 2);
      for (std::uint64_t i = 0; i < pfns; ++i) burst();
      ASSERT_EQ(mon->evictions(), ref.evictions()) << label;
      ASSERT_EQ(image_of(*mon), ref.image()) << label;
      check_drain(-1);
      ASSERT_TRUE(saw_saturated) << label;
    }
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t roll = rng.below(100);
      if (saturating && roll < 2) {
        burst();
      } else if (roll < 88) {
        const mem::Pfn pfn = rng.below(window + 4);  // some on the fast tier
        send(pfn, static_cast<std::uint32_t>(rng.below(cores)));
      } else if (roll < 92) {
        mon->merge_shards();  // the sharded engine's barrier fold
        ref.merge_lanes();
      } else if (roll < 98) {
        check_drain(step);
      } else {
        // Resume mid-stream: the indexes are rebuilt from the image.
        const std::vector<std::uint8_t> image = image_of(*mon);
        mon = std::make_unique<DevMonitor>(cfg, phys, cores);
        mon->set_drain([&got](std::span<const DevMonReportEntry> report) {
          got.insert(got.end(), report.begin(), report.end());
        });
        util::ckpt::Reader r(image);
        r.enter_section("devmon");
        mon->load_state(r);
        r.end_section();
      }
      ASSERT_EQ(mon->evictions(), ref.evictions()) << label << " step " << step;
      ASSERT_EQ(image_of(*mon), ref.image()) << label << " step " << step;
    }
  }
}

// ---------------------------------------------------------------------------
// Ranking fusion: the devmon signal enters the epoch ranking through
// FusionMode::SumDev (weighted additive) and DevOnly (ablation baseline).

core::PageKey page(std::uint64_t n) {
  return core::PageKey{1, n * mem::kPageSize};
}

TEST(DevMon, SumDevFusionAddsWeightedDeviceCounts) {
  core::EpochObservation obs;
  obs.abit[page(1)] = 2;
  obs.trace[page(1)] = 3;
  obs.devmon[page(1)] = 1000;
  obs.devmon[page(2)] = 500;  // devmon-only page still enters the ranking
  core::FusionParams params;
  params.mode = core::FusionMode::SumDev;
  params.devmon_weight = 0.01;
  core::RankingScratch scratch;
  std::vector<core::PageRank> ranking;
  core::build_ranking_into(obs, params, scratch, ranking);
  ASSERT_EQ(ranking.size(), 2U);
  EXPECT_EQ(ranking[0].key, page(1));
  EXPECT_EQ(ranking[0].rank, 2U + 3U + 10U);  // abit + trace + 0.01 * 1000
  EXPECT_EQ(ranking[0].devmon, 1000U);
  EXPECT_EQ(ranking[1].key, page(2));
  EXPECT_EQ(ranking[1].rank, 5U);
}

TEST(DevMon, DevOnlyFusionIgnoresSampledSources) {
  core::EpochObservation obs;
  obs.abit[page(1)] = 50;
  obs.trace[page(1)] = 50;
  obs.devmon[page(2)] = 7;
  core::FusionParams params;
  params.mode = core::FusionMode::DevOnly;
  core::RankingScratch scratch;
  std::vector<core::PageRank> ranking;
  core::build_ranking_into(obs, params, scratch, ranking);
  ASSERT_EQ(ranking.size(), 1U);
  EXPECT_EQ(ranking[0].key, page(2));
  EXPECT_EQ(ranking[0].rank, 7U);
}

// ---------------------------------------------------------------------------
// End-to-end: with DevMon enabled over an explicit three-tier chain, the
// full run must stay bitwise identical across engine thread counts.

sim::SimConfig chain_config() {
  sim::SimConfig cfg;
  cfg.cores = 4;
  cfg.llc_bytes = 1 << 18;
  cfg.tiers = {mem::TierSpec{"dram", 1 << 10, 80, 80, 0},
               mem::TierSpec{"cxl", 1 << 12, 150, 200, 0},
               mem::TierSpec{"nvm", 1 << 16, 300, 600, 0}};
  return cfg;
}

tiering::RunnerOptions chain_options(core::FusionMode fusion,
                                     std::uint32_t n_threads) {
  tiering::RunnerOptions opt;
  opt.policy = "history";
  opt.fusion = fusion;
  opt.n_epochs = 3;
  opt.ops_per_epoch = 30000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
  opt.daemon.driver.devmon.enabled = true;
  opt.daemon.devmon_weight = 0.01;
  opt.n_threads = n_threads;
  return opt;
}

void expect_identical(const tiering::RunnerResult& a,
                      const tiering::RunnerResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.runtime_ns, b.runtime_ns) << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.tier1_hitrate),
            std::bit_cast<std::uint64_t>(b.tier1_hitrate))
      << label << " hitrate " << a.tier1_hitrate << " vs " << b.tier1_hitrate;
  EXPECT_EQ(a.migrations, b.migrations) << label;
  EXPECT_EQ(a.protection_faults, b.protection_faults) << label;
}

TEST(DevMon, EndToEndThreadCountInvariantOnThreeTierChain) {
  const auto spec = workloads::find_spec("data_caching", 0.1);
  const sim::SimConfig cfg = chain_config();
  for (const core::FusionMode fusion :
       {core::FusionMode::SumDev, core::FusionMode::DevOnly}) {
    const std::string label(core::to_string(fusion));
    const tiering::RunnerResult t1 =
        tiering::EndToEndRunner::run(spec, cfg, chain_options(fusion, 1));
    const tiering::RunnerResult t8 =
        tiering::EndToEndRunner::run(spec, cfg, chain_options(fusion, 8));
    expect_identical(t1, t8, label + " [1 vs 8 threads]");
  }
}

}  // namespace
}  // namespace tmprof::monitors
