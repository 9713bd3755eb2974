#pragma once
/// \file mover.hpp
/// The page mover (Section IV, Step 3): reconciles residency with the
/// placement decision at each epoch horizon. Every entry point feeds one
/// reconcile: one placement set per bounded tier, fastest first, and every
/// page outside them belongs in the first tier past them. Demotions free
/// room first, then promotions fill it; each page move performs the remap +
/// shootdown through the System and charges the configured per-page
/// migration cost (the paper's emulation uses 50 µs per page).
///
/// Robustness layer (docs/ROBUSTNESS.md): migrations can fail the way
/// `move_pages()` fails on real kernels. Transient -EBUSY-style failures
/// are retried with exponential backoff in simulated time under a per-epoch
/// retry budget; -ENOMEM-style failures (destination tier full) park the
/// promotion on a deferred queue that is re-attempted in later epochs, so
/// profiler intent survives a temporarily full fast tier.
///
/// Admission layer (docs/ADMISSION.md): when MoverConfig::admission is
/// enabled, every promotion candidate is scored by the AdmissionController
/// *before* demotions are sized, so residents are never evicted to make
/// room for a move the gate then refuses. Rejected candidates keep their
/// demotion protection (they stay "desired") but neither reserve frames
/// nor migrate this epoch.

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/ranking.hpp"
#include "sim/system.hpp"
#include "telemetry/metrics.hpp"
#include "tiering/admission.hpp"
#include "tiering/policy.hpp"
#include "util/fault.hpp"

namespace tmprof::tiering {

class TenantArbiter;

struct MoveStats {
  std::uint64_t promoted = 0;  ///< pages moved to a faster tier
  std::uint64_t demoted = 0;   ///< pages moved to a slower tier
  std::uint64_t retried = 0;   ///< re-attempts after transient (EBUSY) failures
  std::uint64_t deferred = 0;  ///< promotions parked on the deferred queue
  std::uint64_t aborted = 0;   ///< moves dropped after the retry budget ran out
  std::uint64_t no_room = 0;   ///< moves whose destination tier had no room
  std::uint64_t rejected = 0;  ///< admission: below benefit floor / bandwidth
  std::uint64_t cooled = 0;    ///< admission: ping-pong cool-down active
  std::uint64_t shed = 0;      ///< admission: storm brake shed the move
  std::uint64_t moved_bytes = 0;  ///< bytes actually migrated (both ways)
  util::SimNs cost_ns = 0;     ///< migration cost charged to the clock
  util::SimNs backoff_ns = 0;  ///< retry backoff charged to the clock

  /// Legacy view: moves that did not land anywhere this epoch.
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return aborted + no_room;
  }
  void merge(const MoveStats& other) noexcept {
    promoted += other.promoted;
    demoted += other.demoted;
    retried += other.retried;
    deferred += other.deferred;
    aborted += other.aborted;
    no_room += other.no_room;
    rejected += other.rejected;
    cooled += other.cooled;
    shed += other.shed;
    moved_bytes += other.moved_bytes;
    cost_ns += other.cost_ns;
    backoff_ns += other.backoff_ns;
  }
};

/// Retries allowed per move after a transient (EBUSY) failure.
inline constexpr std::uint32_t kMaxRetries = 3;
/// Total retries allowed per apply call. When the budget runs out, further
/// transient failures abort instead of retrying.
inline constexpr std::uint64_t kRetryBudget = 128;
/// Bound on the deferred-promotion queue; overflow drops the coldest
/// (newest) entries rather than growing without limit.
inline constexpr std::size_t kMaxDeferred = 4096;

struct MoverConfig {
  /// Cost charged per migrated page *per hop* (the paper's emulation uses
  /// 50 µs). A move between adjacent tiers is one hop; over an N-tier
  /// chain the cost scales with |src - dest|, so skipping a middle tier
  /// pays for the longer copy path. Every two-tier move is one hop.
  util::SimNs per_page_cost_ns = 50 * util::kMicrosecond;
  /// Only pages ranked at least this hot are worth a migration ("to
  /// justify the migration cost, the hottest pages should be migrated",
  /// Section IV). Rank 1 is the tie mass every touched page reaches via a
  /// single A-bit observation; demanding 2+ filters the noise floor.
  std::uint64_t min_rank = 2;
  /// Deterministic fault injection (disabled by default: rate 0).
  util::FaultConfig fault{};
  /// Migration admission control (docs/ADMISSION.md). Off by default: the
  /// mover behaves bitwise identically to its pre-admission self.
  AdmissionConfig admission{};
};

class PageMover {
 public:
  explicit PageMover(sim::System& system, const MoverConfig& config = {});

  /// Waterfall placement over the tier ladder: the hottest ranked pages
  /// (at or above min_rank) fill tier 0 up to capacities[0] frames, the
  /// next-hottest fill tier 1 up to capacities[1], and so on; every other
  /// page belongs in tier capacities.size(). One capacity per bounded
  /// tier (a two-tier system passes one); requires fewer capacities than
  /// the System has tiers. Charges migration time to the system clock.
  ///
  /// Like real tiering kernels, reconciliation needs a few spare frames in
  /// the destination tiers to stage exchanges: if every tier is 100% full,
  /// demotions (and therefore the promotions waiting on them) fail
  /// gracefully — reported in MoveStats::no_room — and the blocked
  /// promotions are parked on the deferred queue for later epochs.
  MoveStats apply(const std::vector<core::PageRank>& ranking,
                  const std::vector<std::uint64_t>& capacities);

  /// Reconcile tier-0 residency with an explicit placement decision (the
  /// output of any tiering::Policy); every other page belongs in tier 1.
  /// `ranking` orders promotions and identifies cold residents for
  /// demotion; pages in `desired` are moved in regardless of the min_rank
  /// noise floor (the policy already chose).
  MoveStats apply_placement(const PlacementSet& desired,
                            const std::vector<core::PageRank>& ranking);

  /// Enumerate pages currently resident in tier `tier` with their sizes.
  [[nodiscard]] std::vector<std::pair<PageKey, mem::PageSize>> residents(
      mem::TierId tier);

  /// Promotions waiting on the deferred queue for a future epoch.
  [[nodiscard]] std::size_t deferred_pending() const noexcept {
    return deferred_.size();
  }
  /// The admission gate (docs/ADMISSION.md). Disabled (mode Off) unless
  /// MoverConfig::admission enables it; the runner checkpoints it as its
  /// own "admission" section.
  [[nodiscard]] AdmissionController& admission() noexcept {
    return admission_;
  }
  /// Injection tallies (all zero unless MoverConfig::fault enables sites).
  [[nodiscard]] const util::FaultStats& fault_stats() const noexcept {
    return fault_.stats();
  }
  /// Attach (or with null, detach) the fleet tenant arbiter
  /// (docs/CONSOLIDATION.md): per-tenant fast-tier quotas gate promotions,
  /// reclaim takes batch tenants' burst pages first (never below a floor),
  /// and migration fault keys switch to arrival-order-invariant tenant
  /// tags. Null (default) keeps the mover bitwise identical to its
  /// pre-arbitration self. Forwards to the admission gate for the
  /// per-tenant bandwidth sub-budget.
  void set_tenant_arbiter(TenantArbiter* arbiter) noexcept;

  /// Attach (or with null, detach) the telemetry sink: per-apply move
  /// counters, the deferred-queue gauge and a "mover.apply" span per batch
  /// (docs/OBSERVABILITY.md).
  void set_telemetry(telemetry::Telemetry* telemetry);

  /// Checkpoint hooks: the deferred queue, the move sequence counter (fault
  /// keys must not repeat across a resume) and the injector tallies.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  enum class MoveOutcome : std::uint8_t { Moved, NoRoom, Aborted };

  using Resident = std::pair<PageKey, mem::PageSize>;

  /// The one reconcile behind apply() and apply_placement(). A page's
  /// target tier is the index of the first set in `placed` naming it, or
  /// placed.size() when none does; a move is upward when the page sits
  /// below its target. The tenant arbiter charges placed[0] only (quotas
  /// are fast-tier frames).
  MoveStats reconcile(std::span<const PlacementSet* const> placed,
                      const std::vector<core::PageRank>& ranking);
  /// Replace `out` with the pages resident in `tier`, in page-table walk
  /// order (processes in registration order).
  void collect_residents(mem::TierId tier, std::vector<Resident>& out);
  /// Fill demote_order_ with every resident of `tier` in reclaim order,
  /// coldest first by rank_of_. Only called when the pages placed at
  /// `tier` need more frames than it has free.
  void build_demotion_order(mem::TierId tier);
  /// One migration with retry/backoff; `budget` is the remaining per-apply
  /// retry budget. Increments retried/aborted/no_room; the caller accounts
  /// promoted/demoted and the per-page cost on Moved.
  MoveOutcome try_move(const PageKey& key, mem::TierId dest, MoveStats& stats,
                       std::uint64_t& budget);
  /// Per-page migration cost over the chain: per_page_cost_ns scaled by the
  /// tier distance |src - dest| (callers capture `src` before try_move
  /// rewrites the mapping).
  [[nodiscard]] util::SimNs hop_cost(mem::TierId src,
                                     mem::TierId dest) const noexcept {
    const std::uint32_t hops =
        src > dest ? static_cast<std::uint32_t>(src - dest)
                   : static_cast<std::uint32_t>(dest - src);
    return config_.per_page_cost_ns * hops;
  }
  void defer_promotion(const PageKey& key, mem::TierId dest, MoveStats& stats);
  /// Re-attempt queued promotions whose destination has room again.
  void drain_deferred(MoveStats& stats, std::uint64_t& budget);
  /// Admission verdict for one promotion candidate, memoized per apply so
  /// a page consulted by both the pre-pass and the deferred drain is
  /// decided (and tallied) exactly once per epoch.
  AdmissionDecision admit_once(const PageKey& key, mem::PageSize size,
                               MoveStats& stats);
  /// True when the gate is on and `key` was decided non-Admit this apply.
  [[nodiscard]] bool admission_rejected(const PageKey& key) const noexcept;
  /// True when the arbiter is on and `key` was refused quota this apply.
  [[nodiscard]] bool quota_denied(const PageKey& key) const noexcept;
  /// Quota verdict for one desired page, memoized per apply (the pre-pass
  /// and the deferred drain may both consult a key).
  [[nodiscard]] bool quota_charge_once(const PageKey& key,
                                       std::uint64_t frames);
  /// Tenant arbitration pre-pass: decay benefits, grant quotas and charge
  /// every desired page in promote order (hottest first; rank_of_ must
  /// already hold this apply's ranking).
  void arbitrate_quotas(const PlacementSet& desired,
                        const std::vector<core::PageRank>& ranking);
  /// Publish one apply batch's stats and span to the telemetry sink.
  void note_apply(const MoveStats& stats, util::SimNs begin_ns);

  struct DeferredMove {
    PageKey key;
    mem::TierId dest = 0;
  };

  sim::System& system_;
  MoverConfig config_;
  util::FaultInjector fault_;
  AdmissionController admission_;
  /// Per-apply verdict memo (key -> AdmissionDecision as u8); capacity
  /// retained across epochs like every hot-path scratch map.
  core::PageMap<std::uint8_t> admission_memo_;
  TenantArbiter* arbiter_ = nullptr;  ///< not owned; may be null
  /// Per-apply quota memo (key -> 1 granted / 0 denied).
  core::PageMap<std::uint8_t> quota_memo_;
  /// Per-apply scratch, capacity retained across epochs: each ranked key's
  /// first-seen rank, one tier's residents (in reclaim order once
  /// build_demotion_order ran), and the residents being sorted.
  struct RankedResident {
    int qos_class = 0;       ///< arbiter only: 1 = latency tenant
    std::uint64_t rank = 0;  ///< first-seen rank; 0 when unranked
    std::uint64_t seq = 0;   ///< walk position among the sorted residents
    Resident page;
  };
  core::PageMap<std::uint64_t> rank_of_;
  std::vector<Resident> demote_order_;
  std::vector<RankedResident> ranked_;
  std::vector<DeferredMove> deferred_;  ///< FIFO, carried across epochs
  std::unordered_set<PageKey, PageKeyHash> deferred_set_;
  std::uint64_t move_seq_ = 0;  ///< distinguishes fault keys across epochs

  telemetry::Telemetry* telemetry_ = nullptr;  ///< not owned; may be null
  telemetry::Counter t_promoted_;
  telemetry::Counter t_demoted_;
  telemetry::Counter t_retried_;
  telemetry::Counter t_deferred_;
  telemetry::Counter t_aborted_;
  telemetry::Counter t_no_room_;
  telemetry::Counter t_moved_bytes_;
  telemetry::Gauge t_deferred_pending_;
};

}  // namespace tmprof::tiering
