#include "tiering/mover.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "tiering/tenant.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::tiering {
namespace {

sim::SimConfig small_config(std::uint64_t t1_frames) {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = t1_frames;
  cfg.tier2_frames = 1 << 16;
  return cfg;
}

/// Touch `pages` distinct 4 KiB pages of a process.
void touch_pages(sim::System& sys, mem::Pid pid, std::uint64_t pages) {
  sim::Process& proc = sys.process(pid);
  for (std::uint64_t i = 0; i < pages; ++i) {
    sys.access(proc, proc.vaddr_of(i * mem::kPageSize), false, 1);
  }
}

std::vector<core::PageRank> rank_pages(sim::System& sys, mem::Pid pid,
                                       std::initializer_list<std::uint64_t>
                                           page_indices) {
  std::vector<core::PageRank> ranking;
  std::uint64_t rank = 1000;
  sim::Process& proc = sys.process(pid);
  for (std::uint64_t idx : page_indices) {
    core::PageRank pr;
    pr.key = PageKey{pid, proc.vaddr_of(idx * mem::kPageSize)};
    pr.rank = rank--;
    ranking.push_back(pr);
  }
  return ranking;
}

TEST(Mover, PromotesHotPagesIntoTier1) {
  sim::System sys(small_config(4));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 10);  // 4 land in t1, 6 spill to t2
  PageMover mover(sys);
  // Declare pages 6..9 (currently in t2) the hottest.
  const auto ranking = rank_pages(sys, pid, {6, 7, 8, 9});
  const MoveStats stats = mover.apply(ranking, {4});
  EXPECT_EQ(stats.promoted, 4U);
  EXPECT_EQ(stats.demoted, 4U);  // the old residents made room
  sim::Process& proc = sys.process(pid);
  for (std::uint64_t idx : {6ULL, 7ULL, 8ULL, 9ULL}) {
    const auto ref =
        proc.page_table().resolve(proc.vaddr_of(idx * mem::kPageSize));
    EXPECT_EQ(sys.phys().tier_of(ref.pte->pfn()), 0) << idx;
  }
}

TEST(Mover, AlreadyPlacedPagesNotMoved) {
  sim::System sys(small_config(4));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 4);  // all fit in t1
  PageMover mover(sys);
  const auto ranking = rank_pages(sys, pid, {0, 1, 2, 3});
  const MoveStats stats = mover.apply(ranking, {4});
  EXPECT_EQ(stats.promoted, 0U);
  EXPECT_EQ(stats.demoted, 0U);
  EXPECT_EQ(stats.cost_ns, 0U);
}

TEST(Mover, ChargesMigrationCostToClock) {
  sim::System sys(small_config(2));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 6);
  const util::SimNs cost = 50 * util::kMicrosecond;
  MoverConfig mcfg;
  mcfg.per_page_cost_ns = cost;
  PageMover mover(sys, mcfg);
  const util::SimNs before = sys.now();
  const auto ranking = rank_pages(sys, pid, {4, 5});
  const MoveStats stats = mover.apply(ranking, {2});
  EXPECT_EQ(stats.promoted + stats.demoted,
            (sys.now() - before) / cost);
}

TEST(Mover, ResidentsEnumeration) {
  sim::System sys(small_config(3));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 5);
  PageMover mover(sys);
  EXPECT_EQ(mover.residents(0).size(), 3U);
  EXPECT_EQ(mover.residents(1).size(), 2U);
}

TEST(Mover, EmptyRankingIsNoop) {
  sim::System sys(small_config(2));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 4);
  PageMover mover(sys);
  const MoveStats stats = mover.apply({}, {2});
  EXPECT_EQ(stats.promoted + stats.demoted + stats.failed(), 0U);
}

TEST(Mover, CapacitySmallerThanTierRespected) {
  sim::System sys(small_config(8));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 8);  // all in t1
  PageMover mover(sys);
  // Policy says only 2 pages deserve t1 (capacity 2): mover demotes the
  // other t1 residents only as needed — pages 6,7 are already resident, so
  // no demotions are required to satisfy the desired set.
  const auto ranking = rank_pages(sys, pid, {6, 7});
  const MoveStats stats = mover.apply(ranking, {2});
  EXPECT_EQ(stats.promoted, 0U);
  EXPECT_EQ(stats.demoted, 0U);
}

TEST(Mover, FailsGracefullyWhenTier2Full) {
  sim::SimConfig cfg = small_config(2);
  cfg.tier2_frames = 512;  // tiny slow tier
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 2 + 512);  // fills both tiers completely
  PageMover mover(sys);
  const auto ranking = rank_pages(sys, pid, {100, 101});
  const MoveStats stats = mover.apply(ranking, {2});
  // Demotions cannot find room (t2 full) -> promotions fail, no crash.
  EXPECT_GT(stats.failed(), 0U);
  EXPECT_GT(stats.no_room, 0U);
  EXPECT_EQ(stats.aborted, 0U);  // no injected faults -> no retries/aborts
  EXPECT_EQ(stats.retried, 0U);
  // The blocked promotions wait on the deferred queue for a later epoch.
  EXPECT_GT(mover.deferred_pending(), 0U);
}

TEST(Mover, RankedPromotionWithoutRoomCountsOnce) {
  sim::System sys(small_config(2));
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 4);  // 0, 1 in t1; 2, 3 in t2
  PageMover mover(sys);
  // Every tier-1 resident is desired, so nothing is demoted and page 2
  // finds no room: one no_room, one deferral.
  const auto ranking = rank_pages(sys, pid, {0, 1, 2});
  PlacementSet desired;
  for (const core::PageRank& pr : ranking) desired.insert(pr.key);
  const MoveStats stats = mover.apply_placement(desired, ranking);
  EXPECT_EQ(stats.promoted, 0U);
  EXPECT_EQ(stats.demoted, 0U);
  EXPECT_EQ(stats.no_room, 1U);
  EXPECT_EQ(stats.deferred, 1U);
  EXPECT_EQ(mover.deferred_pending(), 1U);
}

TEST(MoverTiers, FullLadderFailsGracefullyAndDefers) {
  // Every tier 100% full: demotions have no room anywhere, so promotions
  // cannot be staged either. The mover must report no_room (not crash) and
  // park the blocked promotions for later epochs.
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tiers = {mem::TierSpec{"tier1-dram", 2, 80, 80, 0},
               mem::TierSpec{"tier2-nvm", 4, 300, 600, 0},
               mem::TierSpec{"tier3-cold", 4, 900, 1800, 0}};
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 10);  // 2 + 4 + 4: fills all three tiers exactly
  PageMover mover(sys);
  // The hottest pages live at the bottom: promotion pressure everywhere.
  const auto ranking = rank_pages(sys, pid, {9, 8, 7, 6});
  const MoveStats stats = mover.apply(ranking, {2, 4});
  EXPECT_EQ(stats.promoted, 0U);
  EXPECT_EQ(stats.demoted, 0U);
  EXPECT_GT(stats.no_room, 0U);
  EXPECT_GT(mover.deferred_pending(), 0U);
  // Re-applying after space opens up drains the queue: free a bottom-tier
  // page so the demotion ladder can stage exchanges again.
  sim::Process& proc = sys.process(pid);
  const mem::Pte freed = proc.page_table().unmap(proc.vaddr_of(0));
  sys.phys().free(freed.pfn());
  const MoveStats again = mover.apply(ranking, {2, 4});
  EXPECT_GT(again.promoted + again.demoted, 0U);
}

}  // namespace
}  // namespace tmprof::tiering

namespace tmprof::tiering {
namespace {

sim::SimConfig three_tier_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tiers = {mem::TierSpec{"tier1-dram", 2, 80, 80, 0},
               mem::TierSpec{"tier2-nvm", 4, 300, 600, 0},
               mem::TierSpec{"tier3-cold", 1 << 14, 900, 1800, 0}};
  return cfg;
}

TEST(MoverTiers, WaterfallPlacesByRankAcrossThreeTiers) {
  sim::System sys(three_tier_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 10);  // 2 in t0, 4 in t1, 4 in t2
  PageMover mover(sys);
  // Hottest: pages 9, 8 (currently t2); then 7, 6, 5, 4.
  const auto ranking = rank_pages(sys, pid, {9, 8, 7, 6, 5, 4});
  const MoveStats stats = mover.apply(ranking, {2, 4});
  EXPECT_GT(stats.promoted, 0U);
  sim::Process& proc = sys.process(pid);
  auto tier_of_page = [&](std::uint64_t idx) {
    const auto ref =
        proc.page_table().resolve(proc.vaddr_of(idx * mem::kPageSize));
    return sys.phys().tier_of(ref.pte->pfn());
  };
  EXPECT_EQ(tier_of_page(9), 0);
  EXPECT_EQ(tier_of_page(8), 0);
  EXPECT_EQ(tier_of_page(7), 1);
  EXPECT_EQ(tier_of_page(6), 1);
  EXPECT_EQ(tier_of_page(5), 1);
  EXPECT_EQ(tier_of_page(4), 1);
  // Unranked pages ended up at the bottom of the ladder.
  EXPECT_EQ(tier_of_page(0), 2);
}

TEST(MoverTiers, MiddleTierDemotesColdestFirst) {
  sim::SimConfig cfg = three_tier_config();
  cfg.tiers[1].frames = 2;
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 6);  // 0, 1 in t0; 2, 3 in t1; 4, 5 in t2
  PageMover mover(sys);
  // Pages 0 and 1 fill tier 0 and page 4 is placed in tier 1, which is
  // full. Page 2 is ranked below the noise floor and page 3 not at all:
  // neither is placed, and the colder one, page 3, makes the room although
  // page 2 comes first in the page walk.
  auto ranking = rank_pages(sys, pid, {0, 1, 4, 2});
  ranking.back().rank = 1;
  const MoveStats stats = mover.apply(ranking, {2, 2});
  EXPECT_EQ(stats.demoted, 1U);
  EXPECT_EQ(stats.promoted, 1U);
  sim::Process& proc = sys.process(pid);
  auto tier_of_page = [&](std::uint64_t idx) {
    const auto ref =
        proc.page_table().resolve(proc.vaddr_of(idx * mem::kPageSize));
    return sys.phys().tier_of(ref.pte->pfn());
  };
  EXPECT_EQ(tier_of_page(4), 1);
  EXPECT_EQ(tier_of_page(2), 1);
  EXPECT_EQ(tier_of_page(3), 2);
}

TEST(MoverTiers, RequiresEnoughTiers) {
  sim::SimConfig cfg = three_tier_config();
  cfg.tiers.pop_back();
  sim::System sys(cfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, 1));
  touch_pages(sys, pid, 2);
  PageMover mover(sys);
  const auto ranking = rank_pages(sys, pid, {0});
  EXPECT_THROW(mover.apply(ranking, {1, 1}), util::AssertionError);
  EXPECT_THROW(mover.apply(ranking, {}), util::AssertionError);
}

}  // namespace
}  // namespace tmprof::tiering

namespace tmprof::tiering {
namespace {

/// Reference reconcile for the differential test below: apply_placement
/// with the demotion order it had before it went linear — a full
/// stable_sort (with a tenant arbiter, a sort) of every tier-0 resident,
/// ranks read through an unordered_map. Everything else mirrors
/// PageMover, minus fault injection: the test runs without it, so a move
/// is a single migrate_page call that lands or finds no room.
class ReferenceMover {
 public:
  ReferenceMover(sim::System& system, const MoverConfig& config,
                 TenantArbiter* arbiter)
      : system_(system),
        config_(config),
        admission_(config.admission),
        arbiter_(arbiter) {
    admission_.set_tenant_arbiter(arbiter_);
  }

  [[nodiscard]] std::size_t deferred_pending() const noexcept {
    return deferred_.size();
  }

  MoveStats apply_placement(const PlacementSet& desired,
                            const std::vector<core::PageRank>& ranking) {
    MoveStats stats;
    if (admission_.enabled()) {
      admission_.begin_epoch(system_.now(), ranking);
      admission_memo_.clear();
    }
    if (arbiter_ != nullptr) arbitrate_quotas(desired, ranking);
    if (admission_.enabled()) {
      auto consider = [&](const PageKey& key) {
        if (quota_denied(key)) return;
        const mem::PteRef ref = resolve(key);
        if (!ref) return;
        if (system_.phys().tier_of(ref.pte->pfn()) == 0) return;
        (void)admit_once(key, ref.size, stats);
      };
      for (const core::PageRank& pr : ranking) {
        if (desired.count(pr.key) != 0) consider(pr.key);
      }
      for (const PageKey& key : desired) consider(key);
    }

    std::unordered_map<PageKey, std::uint64_t, PageKeyHash> rank_of;
    for (const core::PageRank& pr : ranking) rank_of.emplace(pr.key, pr.rank);
    auto rank = [&](const PageKey& key) -> std::uint64_t {
      const auto it = rank_of.find(key);
      return it == rank_of.end() ? 0 : it->second;
    };
    auto t1_pages = residents();
    if (arbiter_ != nullptr) {
      auto protected_class = [&](const PageKey& key) -> int {
        const std::uint32_t tenant = arbiter_->tenant_of(key.pid);
        return tenant != TenantArbiter::kNoTenant &&
                       arbiter_->spec(tenant).qos == QosClass::Latency
                   ? 1
                   : 0;
      };
      std::sort(t1_pages.begin(), t1_pages.end(),
                [&](const auto& a, const auto& b) {
                  const int ca = protected_class(a.first);
                  const int cb = protected_class(b.first);
                  if (ca != cb) return ca < cb;
                  const std::uint64_t ra = rank(a.first);
                  const std::uint64_t rb = rank(b.first);
                  if (ra != rb) return ra < rb;
                  return a.first < b.first;
                });
    } else {
      std::stable_sort(t1_pages.begin(), t1_pages.end(),
                       [&](const auto& a, const auto& b) {
                         return rank(a.first) < rank(b.first);
                       });
    }
    std::vector<std::uint64_t> occupancy;
    if (arbiter_ != nullptr) {
      occupancy.assign(arbiter_->size(), 0);
      for (const auto& [key, size] : t1_pages) {
        const std::uint32_t tenant = arbiter_->tenant_of(key.pid);
        if (tenant != TenantArbiter::kNoTenant) {
          occupancy[tenant] += mem::pages_in(size);
        }
      }
    }
    std::uint64_t need_frames = 0;
    for (const PageKey& key : desired) {
      if (admission_rejected(key) || quota_denied(key)) continue;
      const mem::PteRef ref = resolve(key);
      if (ref && system_.phys().tier_of(ref.pte->pfn()) != 0) {
        need_frames += mem::pages_in(ref.size);
      }
    }
    std::uint64_t free_t1 = system_.phys().free_frames(0);
    for (const auto& [key, size] : t1_pages) {
      if (need_frames <= free_t1) break;
      if (desired.count(key) != 0 && !quota_denied(key)) continue;
      const std::uint64_t frames = mem::pages_in(size);
      std::uint32_t tenant = TenantArbiter::kNoTenant;
      if (arbiter_ != nullptr) {
        tenant = arbiter_->tenant_of(key.pid);
        if (tenant != TenantArbiter::kNoTenant &&
            occupancy[tenant] < arbiter_->floor_of(tenant) + frames) {
          continue;
        }
      }
      if (move(key, 1, stats)) {
        ++stats.demoted;
        stats.cost_ns += config_.per_page_cost_ns;
        stats.moved_bytes += frames << mem::kPageShift;
        free_t1 += frames;
        admission_.note_demoted(key);
        if (tenant != TenantArbiter::kNoTenant) {
          occupancy[tenant] -= frames;
          arbiter_->note_reclaimed(key.pid, frames);
        }
      }
    }

    auto promote = [&](const PageKey& key) {
      if (quota_denied(key) || admission_rejected(key)) return;
      const mem::PteRef ref = resolve(key);
      if (!ref) return;
      if (system_.phys().tier_of(ref.pte->pfn()) == 0) return;
      if (mem::pages_in(ref.size) > system_.phys().free_frames(0)) {
        ++stats.no_room;
        defer(key, stats);
        return;
      }
      if (move(key, 0, stats)) {
        ++stats.promoted;
        stats.cost_ns += config_.per_page_cost_ns;
        stats.moved_bytes += mem::pages_in(ref.size) << mem::kPageShift;
      } else {
        defer(key, stats);
      }
    };
    for (const core::PageRank& pr : ranking) {
      if (desired.count(pr.key) != 0) promote(pr.key);
    }
    for (const PageKey& key : desired) {
      if (rank_of.count(key) == 0) promote(key);  // never-ranked pages only
    }
    drain_deferred(stats);
    if (arbiter_ != nullptr) {
      std::vector<std::uint64_t> held(arbiter_->size(), 0);
      for (const auto& [key, size] : residents()) {
        const std::uint32_t tenant = arbiter_->tenant_of(key.pid);
        if (tenant != TenantArbiter::kNoTenant) {
          held[tenant] += mem::pages_in(size);
        }
      }
      for (std::uint32_t t = 0; t < arbiter_->size(); ++t) {
        arbiter_->set_occupancy(t, held[t]);
      }
    }
    system_.advance_time(stats.cost_ns + stats.backoff_ns);
    return stats;
  }

 private:
  mem::PteRef resolve(const PageKey& key) {
    return system_.process(key.pid).page_table().resolve(key.page_va);
  }

  std::vector<std::pair<PageKey, mem::PageSize>> residents() {
    std::vector<std::pair<PageKey, mem::PageSize>> pages;
    for (sim::Process* proc : system_.processes()) {
      const mem::Pid pid = proc->pid();
      proc->page_table().walk(
          [&](mem::VirtAddr page_va, mem::PageSize size, mem::Pte& pte) {
            if (system_.phys().tier_of(pte.pfn()) == 0) {
              pages.emplace_back(PageKey{pid, page_va}, size);
            }
          });
    }
    return pages;
  }

  bool move(const PageKey& key, mem::TierId dest, MoveStats& stats) {
    if (arbiter_ != nullptr) {
      const std::uint32_t tenant = arbiter_->tenant_of(key.pid);
      if (tenant != TenantArbiter::kNoTenant) {
        (void)arbiter_->next_move_seq(tenant);
      }
    }
    if (system_.migrate_page(key.pid, key.page_va, dest)) return true;
    ++stats.no_room;
    return false;
  }

  AdmissionDecision admit_once(const PageKey& key, mem::PageSize size,
                               MoveStats& stats) {
    const auto [it, inserted] =
        admission_memo_.try_emplace(key, AdmissionDecision::Admit);
    if (!inserted) return it->second;
    const AdmissionDecision d =
        admission_.decide(key, mem::pages_in(size) << mem::kPageShift);
    it->second = d;
    switch (d) {
      case AdmissionDecision::Admit:
        break;
      case AdmissionDecision::Cooled:
        ++stats.cooled;
        break;
      case AdmissionDecision::RejectBenefit:
      case AdmissionDecision::RejectBandwidth:
        ++stats.rejected;
        break;
      case AdmissionDecision::Shed:
        ++stats.shed;
        break;
    }
    return d;
  }

  bool admission_rejected(const PageKey& key) const {
    if (!admission_.enabled()) return false;
    const auto it = admission_memo_.find(key);
    return it != admission_memo_.end() &&
           it->second != AdmissionDecision::Admit;
  }

  bool quota_denied(const PageKey& key) const {
    if (arbiter_ == nullptr) return false;
    const auto it = quota_memo_.find(key);
    return it != quota_memo_.end() && !it->second;
  }

  bool quota_charge_once(const PageKey& key, std::uint64_t frames) {
    const auto [it, inserted] = quota_memo_.try_emplace(key, true);
    if (!inserted) return it->second;
    it->second = arbiter_->try_charge_frames(key.pid, frames);
    return it->second;
  }

  void arbitrate_quotas(const PlacementSet& desired,
                        const std::vector<core::PageRank>& ranking) {
    quota_memo_.clear();
    std::vector<std::uint64_t> heat(arbiter_->size(), 0);
    std::vector<std::uint64_t> demand(arbiter_->size(), 0);
    for (const core::PageRank& pr : ranking) {
      const std::uint32_t tenant = arbiter_->tenant_of(pr.key.pid);
      if (tenant != TenantArbiter::kNoTenant) heat[tenant] += pr.rank;
    }
    for (const PageKey& key : desired) {
      const std::uint32_t tenant = arbiter_->tenant_of(key.pid);
      if (tenant == TenantArbiter::kNoTenant) continue;
      const mem::PteRef ref = resolve(key);
      if (ref) demand[tenant] += mem::pages_in(ref.size);
    }
    const std::uint64_t bw_tokens =
        admission_.enabled() &&
                admission_.config().bandwidth_bytes_per_sec != 0
            ? admission_.tokens()
            : 0;
    arbiter_->begin_epoch(heat, demand, bw_tokens);
    auto charge = [&](const PageKey& key) {
      const mem::PteRef ref = resolve(key);
      if (ref) (void)quota_charge_once(key, mem::pages_in(ref.size));
    };
    for (const core::PageRank& pr : ranking) {
      if (desired.count(pr.key) != 0) charge(pr.key);
    }
    for (const PageKey& key : desired) charge(key);
  }

  void defer(const PageKey& key, MoveStats& stats) {
    if (deferred_.size() >= kMaxDeferred) return;
    if (!deferred_set_.insert(key).second) return;
    deferred_.push_back(key);
    ++stats.deferred;
  }

  void drain_deferred(MoveStats& stats) {
    std::vector<PageKey> keep;
    for (const PageKey& key : deferred_) {
      const mem::PteRef ref = resolve(key);
      if (!ref || system_.phys().tier_of(ref.pte->pfn()) == 0) {
        deferred_set_.erase(key);
        continue;
      }
      const mem::TierId src = system_.phys().tier_of(ref.pte->pfn());
      if (arbiter_ != nullptr &&
          !quota_charge_once(key, mem::pages_in(ref.size))) {
        keep.push_back(key);
        continue;
      }
      if (admission_.enabled()) {
        const AdmissionDecision d = admit_once(key, ref.size, stats);
        if (d == AdmissionDecision::Shed ||
            d == AdmissionDecision::RejectBandwidth) {
          keep.push_back(key);
          continue;
        }
        if (d != AdmissionDecision::Admit) {
          deferred_set_.erase(key);
          continue;
        }
      }
      if (mem::pages_in(ref.size) > system_.phys().free_frames(0)) {
        keep.push_back(key);
        continue;
      }
      if (move(key, 0, stats)) {
        ++stats.promoted;
        stats.cost_ns += config_.per_page_cost_ns * src;
        stats.moved_bytes += mem::pages_in(ref.size) << mem::kPageShift;
        deferred_set_.erase(key);
      } else {
        keep.push_back(key);
      }
    }
    deferred_ = std::move(keep);
  }

  sim::System& system_;
  MoverConfig config_;
  AdmissionController admission_;
  TenantArbiter* arbiter_;
  std::unordered_map<PageKey, AdmissionDecision, PageKeyHash> admission_memo_;
  std::unordered_map<PageKey, bool, PageKeyHash> quota_memo_;
  std::vector<PageKey> deferred_;
  std::unordered_set<PageKey, PageKeyHash> deferred_set_;
};

/// Every mapped page's (key, tier), in walk order.
std::vector<std::tuple<mem::Pid, mem::VirtAddr, mem::TierId>> placement(
    sim::System& sys) {
  std::vector<std::tuple<mem::Pid, mem::VirtAddr, mem::TierId>> out;
  for (sim::Process* proc : sys.processes()) {
    proc->page_table().walk(
        [&](mem::VirtAddr va, mem::PageSize, mem::Pte& pte) {
          out.emplace_back(proc->pid(), va, sys.phys().tier_of(pte.pfn()));
        });
  }
  return out;
}

void expect_same_stats(const MoveStats& a, const MoveStats& b) {
  EXPECT_EQ(a.promoted, b.promoted);
  EXPECT_EQ(a.demoted, b.demoted);
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_EQ(a.deferred, b.deferred);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.no_room, b.no_room);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.cooled, b.cooled);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.moved_bytes, b.moved_bytes);
  EXPECT_EQ(a.cost_ns, b.cost_ns);
  EXPECT_EQ(a.backoff_ns, b.backoff_ns);
}

/// The one-tier waterfall written out: the hottest ranked pages at or
/// above `min_rank` that still fit in `capacity` frames.
PlacementSet greedy_fill(sim::System& sys,
                         const std::vector<core::PageRank>& ranking,
                         std::uint64_t capacity, std::uint64_t min_rank) {
  PlacementSet desired;
  std::uint64_t used = 0;
  for (const core::PageRank& pr : ranking) {
    if (pr.rank < min_rank) break;
    const mem::PteRef ref =
        sys.process(pr.key.pid).page_table().resolve(pr.key.page_va);
    if (!ref) continue;
    const std::uint64_t frames = mem::pages_in(ref.size);
    if (used + frames > capacity) continue;
    desired.insert(pr.key);
    used += frames;
  }
  return desired;
}

/// One seeded scenario: two identical systems, one reconciled by
/// PageMover and one by ReferenceMover, over several epochs of random
/// rankings (rank ties, rank-0 entries, duplicate and unmapped keys) and
/// desired sets (ranked picks plus unranked sticky residents). With
/// `waterfall`, PageMover::apply(ranking, {t1_frames}) runs instead and the
/// reference reconciles greedy_fill's set. Returns the PageMover's stats
/// summed over the epochs.
MoveStats run_differential(std::uint64_t seed, bool with_arbiter,
                           bool with_admission, bool waterfall = false) {
  SCOPED_TRACE(::testing::Message() << "seed=" << seed << " arbiter="
                                    << with_arbiter
                                    << " admission=" << with_admission
                                    << " waterfall=" << waterfall);
  util::Rng rng(seed);
  constexpr std::uint64_t kPagesPerProc = 64;
  const std::uint64_t t1_frames = 16 + rng.below(48);
  const std::uint32_t n_procs = 1 + static_cast<std::uint32_t>(rng.below(3));

  MoverConfig config;
  if (with_admission) {
    config.admission.mode = AdmissionMode::Static;
    config.admission.min_history = 1 + static_cast<std::uint32_t>(rng.below(2));
    config.admission.min_benefit = rng.below(4);
    config.admission.max_moves_per_epoch = rng.below(3) * 4;
  }

  // First touches fill tier 0 and spill over: distinct (process, page)
  // pairs in a random order across processes, so the walk order differs
  // from any rank order.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> first_touches;
  for (std::uint32_t p = 0; p < n_procs; ++p) {
    for (std::uint64_t page = 0; page < kPagesPerProc; ++page) {
      first_touches.emplace_back(p, page);
    }
  }
  std::shuffle(first_touches.begin(), first_touches.end(), rng);
  first_touches.resize(std::min<std::size_t>(first_touches.size(),
                                             t1_frames + 1 + rng.below(64)));
  // A quarter of the scenarios leave tier 2 almost full, so demotions, and
  // the promotions waiting on them, run out of room and defer.
  const bool tight = rng.below(4) == 0;
  sim::SimConfig cfg = small_config(t1_frames);
  if (tight) cfg.tier2_frames = first_touches.size() - t1_frames + rng.below(3);
  sim::System sys_a(cfg);
  sim::System sys_b(cfg);
  for (std::uint32_t p = 0; p < n_procs; ++p) {
    for (sim::System* sys : {&sys_a, &sys_b}) {
      sys->add_process(
          std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, p + 1));
    }
  }
  const std::vector<mem::Pid> pids = [&] {
    std::vector<mem::Pid> out;
    for (sim::Process* proc : sys_a.processes()) out.push_back(proc->pid());
    return out;
  }();
  auto random_key = [&](std::uint64_t page_limit) {
    const mem::Pid pid = pids[rng.below(pids.size())];
    return PageKey{pid, sys_a.process(pid).vaddr_of(rng.below(page_limit) *
                                                    mem::kPageSize)};
  };
  auto touch = [&](const PageKey& key) {
    for (sim::System* sys : {&sys_a, &sys_b}) {
      sys->access(sys->process(key.pid), key.page_va, false, 1);
    }
  };
  std::vector<PageKey> touched;
  for (const auto& [p, page] : first_touches) {
    const mem::Pid pid = pids[p];
    touched.push_back(
        PageKey{pid, sys_a.process(pid).vaddr_of(page * mem::kPageSize)});
    touch(touched.back());
  }
  // Dense scenarios rank nearly every mapped page, as real profiles do, so
  // reclaim runs deep into the ranked residents and their rank ties.
  const bool dense = rng.below(2) == 0;

  TenantArbiter arbiter_a;
  TenantArbiter arbiter_b;
  if (with_arbiter) {
    // Leave the last of three processes unregistered (kNoTenant).
    const std::size_t registered = pids.size() == 3 ? 2 : pids.size();
    for (std::size_t i = 0; i < registered; ++i) {
      TenantSpec spec;
      spec.name = "t" + std::to_string(i);
      spec.qos = i == 0 ? QosClass::Latency : QosClass::Batch;
      spec.floor_frames = rng.below(8);
      for (TenantArbiter* arbiter : {&arbiter_a, &arbiter_b}) {
        arbiter->set_capacity(t1_frames);
        arbiter->register_tenant(pids[i], spec);
      }
    }
  }
  PageMover mover(sys_a, config);
  if (with_arbiter) mover.set_tenant_arbiter(&arbiter_a);
  ReferenceMover reference(sys_b, config,
                           with_arbiter ? &arbiter_b : nullptr);
  MoveStats total;

  for (int epoch = 0; epoch < 5; ++epoch) {
    // Ranking over mapped and unmapped keys, ranks 0..5 for heavy ties,
    // descending with duplicates kept (the first occurrence's rank wins).
    std::vector<core::PageRank> ranking;
    const std::uint64_t n_ranked = rng.below(2 * t1_frames);
    for (std::uint64_t i = 0; i < n_ranked; ++i) {
      core::PageRank pr;
      pr.key = random_key(kPagesPerProc + 16);
      pr.rank = rng.below(6);
      ranking.push_back(pr);
    }
    for (const PageKey& key : touched) {
      if (!dense || rng.below(8) == 0) continue;
      core::PageRank pr;
      pr.key = key;
      pr.rank = rng.below(6);
      ranking.push_back(pr);
    }
    if (!ranking.empty()) {
      core::PageRank dup = ranking[rng.below(ranking.size())];
      dup.rank = rng.below(6);
      ranking.push_back(dup);
    }
    std::stable_sort(ranking.begin(), ranking.end(),
                     [](const core::PageRank& a, const core::PageRank& b) {
                       return a.rank > b.rank;
                     });
    // Desired sets may overshoot tier 0, leaving promotions without room.
    PlacementSet desired;
    const std::uint64_t want_pages = t1_frames + rng.below(8);
    for (const core::PageRank& pr : ranking) {
      if (desired.size() >= want_pages) break;
      if (rng.below(3) != 0) desired.insert(pr.key);
    }
    const std::uint64_t sticky = rng.below(4);
    for (std::uint64_t i = 0; i < sticky; ++i) {
      desired.insert(random_key(kPagesPerProc));
    }

    MoveStats got;
    MoveStats want;
    if (!waterfall) {
      got = mover.apply_placement(desired, ranking);
      want = reference.apply_placement(desired, ranking);
    } else {
      got = mover.apply(ranking, {t1_frames});
      if (!ranking.empty()) {  // an empty ranking leaves apply a no-op
        want = reference.apply_placement(
            greedy_fill(sys_b, ranking, t1_frames, config.min_rank), ranking);
      }
    }
    total.merge(got);
    SCOPED_TRACE(::testing::Message() << "epoch=" << epoch);
    expect_same_stats(got, want);
    EXPECT_EQ(placement(sys_a), placement(sys_b));
    EXPECT_EQ(mover.deferred_pending(), reference.deferred_pending());
    EXPECT_EQ(sys_a.now(), sys_b.now());
    if (with_arbiter) {
      const auto outcomes_a = arbiter_a.snapshot_outcomes();
      const auto outcomes_b = arbiter_b.snapshot_outcomes();
      EXPECT_EQ(outcomes_a.size(), outcomes_b.size());
      for (std::size_t t = 0;
           t < std::min(outcomes_a.size(), outcomes_b.size()); ++t) {
        EXPECT_EQ(outcomes_a[t].occupancy_frames,
                  outcomes_b[t].occupancy_frames);
        EXPECT_EQ(outcomes_a[t].reclaimed_frames,
                  outcomes_b[t].reclaimed_frames);
        EXPECT_EQ(outcomes_a[t].quota_shed, outcomes_b[t].quota_shed);
      }
    }
    // New first touches between epochs, landing wherever there is room.
    const std::uint64_t fresh = tight ? 0 : rng.below(4);
    for (std::uint64_t i = 0; i < fresh; ++i) touch(random_key(kPagesPerProc));
  }
  return total;
}

/// The scenarios must really reach every reclaim and gate path.
void expect_exercised(const MoveStats& plain, const MoveStats& gated) {
  EXPECT_GT(plain.demoted, 0U);
  EXPECT_GT(plain.promoted, 0U);
  EXPECT_GT(plain.deferred, 0U);
  EXPECT_GT(gated.demoted, 0U);
  EXPECT_GT(gated.rejected + gated.shed, 0U);
}

TEST(MoverDifferential, DemotionOrderMatchesFullSortReference) {
  MoveStats plain;
  MoveStats gated;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    plain.merge(run_differential(seed, /*with_arbiter=*/false,
                                 /*with_admission=*/false));
    gated.merge(run_differential(seed, /*with_arbiter=*/false,
                                 /*with_admission=*/true));
  }
  expect_exercised(plain, gated);
}

TEST(MoverDifferential, ApplyMatchesGreedyFillReference) {
  for (const bool with_arbiter : {false, true}) {
    MoveStats plain;
    MoveStats gated;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      plain.merge(run_differential(seed, with_arbiter,
                                   /*with_admission=*/false,
                                   /*waterfall=*/true));
      gated.merge(run_differential(seed, with_arbiter,
                                   /*with_admission=*/true,
                                   /*waterfall=*/true));
    }
    expect_exercised(plain, gated);
  }
}

TEST(MoverDifferential, ArbiterReclaimOrderMatchesFullSortReference) {
  MoveStats plain;
  MoveStats gated;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    plain.merge(run_differential(seed, /*with_arbiter=*/true,
                                 /*with_admission=*/false));
    gated.merge(run_differential(seed, /*with_arbiter=*/true,
                                 /*with_admission=*/true));
  }
  expect_exercised(plain, gated);
}

}  // namespace
}  // namespace tmprof::tiering
