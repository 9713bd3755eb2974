#include "tiering/mover.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "tiering/tenant.hpp"
#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::tiering {

namespace {
/// Backoff charged before the first retry; doubles per further retry.
constexpr util::SimNs kRetryBackoffNs = 5 * util::kMicrosecond;
}  // namespace

PageMover::PageMover(sim::System& system, const MoverConfig& config)
    : system_(system),
      config_(config),
      fault_(config.fault),
      admission_(config.admission) {}

std::vector<std::pair<PageKey, mem::PageSize>> PageMover::residents(
    mem::TierId tier) {
  std::vector<Resident> pages;
  collect_residents(tier, pages);
  return pages;
}

void PageMover::collect_residents(mem::TierId tier,
                                  std::vector<Resident>& out) {
  out.clear();
  for (sim::Process* proc : system_.processes()) {
    const mem::Pid pid = proc->pid();
    proc->page_table().walk(
        [&](mem::VirtAddr page_va, mem::PageSize size, mem::Pte& pte) {
          if (system_.phys().tier_of(pte.pfn()) == tier) {
            out.emplace_back(PageKey{pid, page_va}, size);
          }
        });
  }
}

void PageMover::build_demotion_order(mem::TierId tier) {
  auto rank_of = [&](const PageKey& key) -> std::uint64_t {
    const auto it = rank_of_.find(key);
    return it == rank_of_.end() ? 0 : it->second;
  };
  collect_residents(tier, demote_order_);
  ranked_.clear();
  if (arbiter_ != nullptr && tier == 0) {
    // QoS-aware reclaim (docs/CONSOLIDATION.md): batch (and unregistered)
    // tenants' burst pages go first, latency tenants' pages last; within a
    // class coldest first, ties on ascending key. A strict total order, so
    // the reclaim sequence is bitwise thread-count invariant.
    for (const Resident& page : demote_order_) {
      const std::uint32_t tenant = arbiter_->tenant_of(page.first.pid);
      const bool latency = tenant != TenantArbiter::kNoTenant &&
                           arbiter_->spec(tenant).qos == QosClass::Latency;
      ranked_.push_back(
          RankedResident{latency ? 1 : 0, rank_of(page.first), 0, page});
    }
    std::sort(ranked_.begin(), ranked_.end(),
              [](const RankedResident& a, const RankedResident& b) {
                if (a.qos_class != b.qos_class) {
                  return a.qos_class < b.qos_class;
                }
                if (a.rank != b.rank) return a.rank < b.rank;
                return a.page.first < b.page.first;
              });
    for (std::size_t i = 0; i < ranked_.size(); ++i) {
      demote_order_[i] = ranked_[i].page;
    }
    return;
  }
  // Coldest first and stable in walk order: unranked residents (rank 0)
  // lead in walk order, then only the ranked ones are sorted — by rank,
  // ties in walk order — so the sort is O(ranked residents), not O(R).
  std::size_t next = 0;
  for (const Resident& page : demote_order_) {
    const std::uint64_t rank = rank_of(page.first);
    if (rank == 0) {
      demote_order_[next++] = page;
    } else {
      ranked_.push_back(RankedResident{0, rank, ranked_.size(), page});
    }
  }
  std::sort(ranked_.begin(), ranked_.end(),
            [](const RankedResident& a, const RankedResident& b) {
              if (a.rank != b.rank) return a.rank < b.rank;
              return a.seq < b.seq;
            });
  for (const RankedResident& r : ranked_) demote_order_[next++] = r.page;
}

void PageMover::set_tenant_arbiter(TenantArbiter* arbiter) noexcept {
  arbiter_ = (arbiter != nullptr && arbiter->enabled()) ? arbiter : nullptr;
  admission_.set_tenant_arbiter(arbiter_);
}

void PageMover::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  admission_.set_telemetry(telemetry);
  if (telemetry == nullptr) {
    t_promoted_ = {};
    t_demoted_ = {};
    t_retried_ = {};
    t_deferred_ = {};
    t_aborted_ = {};
    t_no_room_ = {};
    t_moved_bytes_ = {};
    t_deferred_pending_ = {};
    return;
  }
  telemetry::MetricsRegistry& m = telemetry->metrics();
  t_promoted_ = m.counter("mover_promoted_total");
  t_demoted_ = m.counter("mover_demoted_total");
  t_retried_ = m.counter("mover_retried_total");
  t_deferred_ = m.counter("mover_deferred_total");
  t_aborted_ = m.counter("mover_aborted_total");
  t_no_room_ = m.counter("mover_no_room_total");
  t_moved_bytes_ = m.counter("mover_moved_bytes_total");
  t_deferred_pending_ = m.gauge("mover_deferred_pending");
}

void PageMover::note_apply(const MoveStats& stats, util::SimNs begin_ns) {
  t_promoted_.add(stats.promoted);
  t_demoted_.add(stats.demoted);
  t_retried_.add(stats.retried);
  t_deferred_.add(stats.deferred);
  t_aborted_.add(stats.aborted);
  t_no_room_.add(stats.no_room);
  t_moved_bytes_.add(stats.moved_bytes);
  t_deferred_pending_.set(deferred_.size());
  if (telemetry_ != nullptr) {
    telemetry_->span("mover.apply", begin_ns, system_.now(),
                     telemetry::kTidMover);
  }
}

PageMover::MoveOutcome PageMover::try_move(const PageKey& key, mem::TierId dest,
                                           MoveStats& stats,
                                           std::uint64_t& budget) {
  ++move_seq_;
  // Fault-site identity: with a tenant arbiter attached, migration faults
  // key on the tenant's *name tag* and its own move sequence, so a churned
  // fleet draws the same per-tenant fault schedule regardless of arrival
  // order or pid assignment. Without one, the legacy pid-based key is
  // preserved bit-for-bit.
  std::uint64_t site = (static_cast<std::uint64_t>(key.pid) << 8) | dest;
  std::uint64_t seq = move_seq_;
  if (arbiter_ != nullptr) {
    const std::uint32_t tenant = arbiter_->tenant_of(key.pid);
    if (tenant != TenantArbiter::kNoTenant) {
      site = (arbiter_->fault_tag(tenant) << 8) | dest;
      seq = arbiter_->next_move_seq(tenant);
    }
  }
  std::uint32_t attempt = 0;
  for (;;) {
    if (fault_.enabled()) {
      const std::uint64_t fkey =
          util::fault_key(site, key.page_va, (seq << 8) | attempt);
      if (fault_.fire(util::FaultSite::MigrationBusy, fkey)) {
        // Transient -EBUSY: the page was pinned or its mapcount raced.
        // Back off (exponentially, in simulated time) and retry while the
        // per-move and per-epoch budgets allow.
        if (attempt >= kMaxRetries || budget == 0) {
          ++stats.aborted;
          return MoveOutcome::Aborted;
        }
        ++attempt;
        ++stats.retried;
        --budget;
        stats.backoff_ns += kRetryBackoffNs << (attempt - 1);
        continue;
      }
      if (fault_.fire(util::FaultSite::MigrationNoMem, fkey)) {
        // -ENOMEM: the destination looked full to the allocator. Retrying
        // immediately cannot help; the caller defers or drops the move.
        ++stats.no_room;
        return MoveOutcome::NoRoom;
      }
    }
    if (!system_.migrate_page(key.pid, key.page_va, dest)) {
      ++stats.no_room;
      return MoveOutcome::NoRoom;
    }
    return MoveOutcome::Moved;
  }
}

AdmissionDecision PageMover::admit_once(const PageKey& key,
                                        mem::PageSize size, MoveStats& stats) {
  const auto [slot, inserted] = admission_memo_.try_emplace(
      key, static_cast<std::uint8_t>(AdmissionDecision::Admit));
  if (!inserted) return static_cast<AdmissionDecision>(*slot);
  const std::uint64_t bytes = mem::pages_in(size) << mem::kPageShift;
  const AdmissionDecision d = admission_.decide(key, bytes);
  *slot = static_cast<std::uint8_t>(d);
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

bool PageMover::admission_rejected(const PageKey& key) const noexcept {
  if (!admission_.enabled()) return false;
  const auto it = admission_memo_.find(key);
  return it != admission_memo_.end() &&
         static_cast<AdmissionDecision>(it->second) !=
             AdmissionDecision::Admit;
}

bool PageMover::quota_denied(const PageKey& key) const noexcept {
  if (arbiter_ == nullptr) return false;
  const auto it = quota_memo_.find(key);
  return it != quota_memo_.end() && it->second == 0;
}

bool PageMover::quota_charge_once(const PageKey& key, std::uint64_t frames) {
  const auto [slot, inserted] = quota_memo_.try_emplace(key, std::uint8_t{1});
  if (!inserted) return *slot != 0;
  const bool ok = arbiter_->try_charge_frames(key.pid, frames);
  *slot = ok ? 1 : 0;
  return ok;
}

void PageMover::arbitrate_quotas(const PlacementSet& desired,
                                 const std::vector<core::PageRank>& ranking) {
  quota_memo_.clear();
  // Epoch-barrier inputs: per-tenant ranking mass (benefit) and desired
  // fast-tier frames (demand), both integer sums in deterministic order.
  std::vector<std::uint64_t> heat(arbiter_->size(), 0);
  std::vector<std::uint64_t> demand(arbiter_->size(), 0);
  for (const core::PageRank& pr : ranking) {
    const std::uint32_t tenant = arbiter_->tenant_of(pr.key.pid);
    if (tenant != TenantArbiter::kNoTenant) heat[tenant] += pr.rank;
  }
  for (const PageKey& key : desired) {
    const std::uint32_t tenant = arbiter_->tenant_of(key.pid);
    if (tenant == TenantArbiter::kNoTenant) continue;
    sim::Process& proc = system_.process(key.pid);
    const mem::PteRef ref = proc.page_table().resolve(key.page_va);
    if (ref) demand[tenant] += mem::pages_in(ref.size);
  }
  // The bandwidth carve sees the admission bucket's post-refill level
  // (begin_epoch above already refilled it); 0 disables the sub-budget.
  const std::uint64_t bw_tokens =
      admission_.enabled() && admission_.config().bandwidth_bytes_per_sec != 0
          ? admission_.tokens()
          : 0;
  arbiter_->begin_epoch(heat, demand, bw_tokens);
  // Charge desired pages hottest-first (ranking order, then leftover set
  // order — the same total order the promote loop walks), so each
  // tenant's grant covers its hottest pages and the denial boundary is
  // identical at any thread count.
  auto charge = [&](const PageKey& key) {
    sim::Process& proc = system_.process(key.pid);
    const mem::PteRef ref = proc.page_table().resolve(key.page_va);
    if (!ref) return;
    (void)quota_charge_once(key, mem::pages_in(ref.size));
  };
  for (const core::PageRank& pr : ranking) {
    if (desired.count(pr.key) != 0) charge(pr.key);
  }
  for (const PageKey& key : desired) {
    if (!rank_of_.contains(key)) charge(key);
  }
}

void PageMover::defer_promotion(const PageKey& key, mem::TierId dest,
                                MoveStats& stats) {
  if (deferred_.size() >= kMaxDeferred) return;  // queue full: drop
  if (!deferred_set_.insert(key).second) return;         // already queued
  deferred_.push_back(DeferredMove{key, dest});
  ++stats.deferred;
}

void PageMover::drain_deferred(MoveStats& stats, std::uint64_t& budget) {
  if (deferred_.empty()) return;
  std::vector<DeferredMove> keep;
  for (const DeferredMove& d : deferred_) {
    sim::Process& proc = system_.process(d.key.pid);
    const mem::PteRef ref = proc.page_table().resolve(d.key.page_va);
    if (!ref) {  // page vanished while queued
      deferred_set_.erase(d.key);
      continue;
    }
    const mem::TierId src = system_.phys().tier_of(ref.pte->pfn());
    if (src <= d.dest) {
      // Already fast enough (another path promoted it).
      deferred_set_.erase(d.key);
      continue;
    }
    if (arbiter_ != nullptr && d.dest == 0 &&
        !quota_charge_once(d.key, mem::pages_in(ref.size))) {
      keep.push_back(d);  // over quota this epoch; re-arbitrated next epoch
      continue;
    }
    if (admission_.enabled()) {
      // Queued intent re-justifies itself each epoch. Transient verdicts
      // (bandwidth short, storm brake) keep the item queued; stale intent
      // (heat gone, ping-pong cool-down) is dropped — promoting it later
      // would be exactly the junk move the gate exists to stop.
      bool drop = false;
      bool park = false;
      switch (admit_once(d.key, ref.size, stats)) {
        case AdmissionDecision::Admit:
          break;
        case AdmissionDecision::Shed:
        case AdmissionDecision::RejectBandwidth:
          park = true;
          break;
        case AdmissionDecision::RejectBenefit:
        case AdmissionDecision::Cooled:
          drop = true;
          break;
      }
      if (park) {
        keep.push_back(d);
        continue;
      }
      if (drop) {
        deferred_set_.erase(d.key);
        continue;
      }
    }
    if (mem::pages_in(ref.size) > system_.phys().free_frames(d.dest)) {
      keep.push_back(d);  // still no room; stays queued (not re-counted)
      continue;
    }
    switch (try_move(d.key, d.dest, stats, budget)) {
      case MoveOutcome::Moved:
        ++stats.promoted;
        stats.cost_ns += hop_cost(src, d.dest);
        stats.moved_bytes += mem::pages_in(ref.size) << mem::kPageShift;
        deferred_set_.erase(d.key);
        break;
      case MoveOutcome::NoRoom:
        keep.push_back(d);
        break;
      case MoveOutcome::Aborted:
        deferred_set_.erase(d.key);
        break;
    }
  }
  deferred_ = std::move(keep);
}

MoveStats PageMover::apply(const std::vector<core::PageRank>& ranking,
                           const std::vector<std::uint64_t>& capacities) {
  TMPROF_EXPECTS(!capacities.empty());
  TMPROF_EXPECTS(capacities.size() < system_.phys().tier_count());
  if (ranking.empty()) return MoveStats{};

  // One placement set per bounded tier, filled hottest first: each page
  // takes the fastest tier that still has room for all its frames. Pages
  // below the noise floor are not worth a migration; the residents they
  // would have displaced simply stay put.
  std::vector<PlacementSet> sets(capacities.size());
  std::vector<std::uint64_t> used(capacities.size(), 0);
  std::uint64_t room = 0;
  for (const std::uint64_t frames : capacities) room += frames;
  for (const core::PageRank& pr : ranking) {
    if (room == 0) break;
    if (pr.rank < config_.min_rank) break;  // ranking is descending
    sim::Process& proc = system_.process(pr.key.pid);
    const mem::PteRef ref = proc.page_table().resolve(pr.key.page_va);
    if (!ref) continue;  // page vanished
    const std::uint64_t frames = mem::pages_in(ref.size);
    for (std::size_t t = 0; t < capacities.size(); ++t) {
      if (used[t] + frames > capacities[t]) continue;
      sets[t].insert(pr.key);
      used[t] += frames;
      room -= frames;
      break;
    }
  }
  std::vector<const PlacementSet*> placed;
  placed.reserve(sets.size());
  for (const PlacementSet& set : sets) placed.push_back(&set);
  return reconcile(placed, ranking);
}

MoveStats PageMover::apply_placement(
    const PlacementSet& desired, const std::vector<core::PageRank>& ranking) {
  const PlacementSet* const placed[] = {&desired};
  return reconcile(placed, ranking);
}

MoveStats PageMover::reconcile(std::span<const PlacementSet* const> placed,
                               const std::vector<core::PageRank>& ranking) {
  MoveStats stats;
  const util::SimNs apply_begin = system_.now();
  std::uint64_t budget = kRetryBudget;
  const auto rest = static_cast<mem::TierId>(placed.size());
  auto target_of = [&](const PageKey& key) {
    mem::TierId t = 0;
    while (t < rest && placed[t]->count(key) == 0) ++t;
    return t;
  };
  rank_of_.clear();
  for (const core::PageRank& pr : ranking) {
    rank_of_.try_emplace(pr.key, pr.rank);
  }
  // Every placed page with its target, in promote order: ranking order,
  // then each set's never-ranked pages (e.g., a sticky policy's carried-over
  // residents) in set order.
  auto for_each_placed = [&](auto&& visit) {
    for (const core::PageRank& pr : ranking) {
      const mem::TierId target = target_of(pr.key);
      if (target < rest) visit(pr.key, target);
    }
    for (mem::TierId t = 0; t < rest; ++t) {
      for (const PageKey& key : *placed[t]) {
        if (rank_of_.contains(key) || target_of(key) != t) continue;
        visit(key, t);
      }
    }
  };

  // Admission pre-pass (docs/ADMISSION.md): score every upward move
  // *before* demotions are sized, so residents are never evicted to make
  // room for a move the gate then refuses. Candidates are visited in the
  // exact promote order below, so the storm brake sheds the
  // lowest-benefit moves first under the same total RankOrder.
  if (admission_.enabled()) {
    admission_.begin_epoch(system_.now(), ranking);
    admission_memo_.clear();
  }
  // Tenant quota arbitration (docs/CONSOLIDATION.md) runs after the bucket
  // refill above — the bandwidth carve splits post-refill tokens — and
  // before admission verdicts, so quota-denied pages are never scored.
  if (arbiter_ != nullptr) arbitrate_quotas(*placed[0], ranking);
  if (admission_.enabled()) {
    for_each_placed([&](const PageKey& key, mem::TierId target) {
      if (quota_denied(key)) return;
      sim::Process& proc = system_.process(key.pid);
      const mem::PteRef ref = proc.page_table().resolve(key.page_va);
      if (!ref) return;
      if (system_.phys().tier_of(ref.pte->pfn()) <= target) return;
      (void)admit_once(key, ref.size, stats);
    });
  }

  // Demote bottom-up: a tier can only shed pages into the tiers below it,
  // so room must open at the bottom before the top can drain. Residents
  // leave *coldest first*, so a hot resident that merely escaped this
  // epoch's sparse sample is the last to go. Demotion is lazy: pages move
  // out only when the pages placed at a tier actually need the space, and
  // its residents are not even enumerated while its free frames already
  // cover them.
  for (mem::TierId tier = rest; tier-- > 0;) {
    std::uint64_t need_frames = 0;
    for (const PageKey& key : *placed[tier]) {
      if (target_of(key) != tier) continue;   // placed higher up
      if (admission_rejected(key)) continue;  // will not move: reserve nothing
      if (quota_denied(key)) continue;        // over quota: reserves nothing
      sim::Process& proc = system_.process(key.pid);
      const mem::PteRef ref = proc.page_table().resolve(key.page_va);
      if (ref && system_.phys().tier_of(ref.pte->pfn()) != tier) {
        need_frames += mem::pages_in(ref.size);
      }
    }
    std::uint64_t free_frames = system_.phys().free_frames(tier);
    if (need_frames <= free_frames) continue;
    build_demotion_order(tier);
    // Per-tenant fast-tier occupancy, maintained through the demote loop
    // so the floor guard sees live balances.
    const bool arbitrated = arbiter_ != nullptr && tier == 0;
    std::vector<std::uint64_t> occupancy;
    if (arbitrated) {
      occupancy.assign(arbiter_->size(), 0);
      for (const auto& [key, size] : demote_order_) {
        const std::uint32_t tenant = arbiter_->tenant_of(key.pid);
        if (tenant != TenantArbiter::kNoTenant) {
          occupancy[tenant] += mem::pages_in(size);
        }
      }
    }
    for (const auto& [key, size] : demote_order_) {
      if (need_frames <= free_frames) break;
      // Pages placed at this tier or above keep demotion protection —
      // unless the arbiter refused them quota this epoch, in which case
      // they are exactly the over-quota burst pages reclaim exists to take
      // back.
      const mem::TierId target = target_of(key);
      if (target <= tier && !(arbitrated && quota_denied(key))) continue;
      const std::uint64_t frames = mem::pages_in(size);
      std::uint32_t tenant = TenantArbiter::kNoTenant;
      if (arbitrated) {
        tenant = arbiter_->tenant_of(key.pid);
        if (tenant != TenantArbiter::kNoTenant &&
            occupancy[tenant] < arbiter_->floor_of(tenant) + frames) {
          continue;  // the floor is inviolable: only burst is reclaimable
        }
      }
      const auto dest = std::max(target, static_cast<mem::TierId>(tier + 1));
      if (try_move(key, dest, stats, budget) == MoveOutcome::Moved) {
        ++stats.demoted;
        stats.cost_ns += hop_cost(tier, dest);
        stats.moved_bytes += frames << mem::kPageShift;
        free_frames += frames;
        admission_.note_demoted(key);
        if (tenant != TenantArbiter::kNoTenant) {
          occupancy[tenant] -= frames;
          arbiter_->note_reclaimed(key.pid, frames);
        }
      }
      // Failed demotions are not deferred: the resident stays put and is
      // naturally reconsidered next epoch.
    }
  }

  // Promote the placed pages that still live below their target, hottest
  // first.
  for_each_placed([&](const PageKey& key, mem::TierId target) {
    if (quota_denied(key)) return;
    if (admission_rejected(key)) return;
    sim::Process& proc = system_.process(key.pid);
    const mem::PteRef ref = proc.page_table().resolve(key.page_va);
    if (!ref) return;
    const mem::TierId src = system_.phys().tier_of(ref.pte->pfn());
    if (src <= target) return;
    if (mem::pages_in(ref.size) > system_.phys().free_frames(target)) {
      ++stats.no_room;
      defer_promotion(key, target, stats);
      return;
    }
    switch (try_move(key, target, stats, budget)) {
      case MoveOutcome::Moved:
        ++stats.promoted;
        stats.cost_ns += hop_cost(src, target);
        stats.moved_bytes += mem::pages_in(ref.size) << mem::kPageShift;
        break;
      case MoveOutcome::NoRoom:
        defer_promotion(key, target, stats);
        break;
      case MoveOutcome::Aborted:
        break;  // retry budget exhausted: dropped for this epoch
    }
  });

  drain_deferred(stats, budget);
  if (arbiter_ != nullptr) {
    // Post-reconcile occupancy snapshot: what each tenant actually holds
    // after demotions, promotions and the deferred drain.
    std::vector<std::uint64_t> held(arbiter_->size(), 0);
    collect_residents(0, demote_order_);
    for (const auto& [key, size] : demote_order_) {
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
  note_apply(stats, apply_begin);
  return stats;
}

void PageMover::save_state(util::ckpt::Writer& w) const {
  fault_.save_state(w);
  w.put_u64(deferred_.size());
  for (const DeferredMove& dm : deferred_) {
    w.put_u64(dm.key.pid);
    w.put_u64(dm.key.page_va);
    w.put_u8(dm.dest);
  }
  w.put_u64(move_seq_);
}

void PageMover::load_state(util::ckpt::Reader& r) {
  fault_.load_state(r);
  deferred_.clear();
  deferred_set_.clear();
  const std::uint64_t count = r.get_u64();
  deferred_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    DeferredMove dm;
    dm.key.pid = static_cast<mem::Pid>(r.get_u64());
    dm.key.page_va = r.get_u64();
    dm.dest = static_cast<mem::TierId>(r.get_u8());
    deferred_set_.insert(dm.key);
    deferred_.push_back(dm);
  }
  move_seq_ = r.get_u64();
}

}  // namespace tmprof::tiering
