#pragma once
/// \file admission.hpp
/// Migration admission control (docs/ADMISSION.md). The PR-2 mover retries
/// and defers failed moves but never asks whether a migration is *worth
/// it*; under shifting workloads the daemon can issue migration storms that
/// burn bandwidth promoting pages whose heat is already gone. The
/// AdmissionController sits in front of every PageMover::apply* path and
/// scores each promotion candidate:
///
///  * benefit — expected fast-tier hits saved, predicted from a bounded
///    per-page history of recent epoch ranks (geometrically decayed, so a
///    page hot for several epochs outscores a one-epoch wonder);
///  * cost — bytes moved, charged against a simulated-time token-bucket
///    bandwidth budget shared by all migrations;
///  * ping-pong — pages demoted then re-requested within K epochs earn an
///    exponentially escalating cool-down;
///  * storm brake — a per-epoch cap on admitted promotions; because the
///    mover evaluates candidates under the total RankOrder, the brake
///    sheds the lowest-benefit moves first, deterministically.
///
/// Everything is integer arithmetic over epoch-barrier inputs, so verdicts
/// are bitwise invariant across thread counts, and the whole controller
/// (history, bucket, cool-downs, its own metrics registry) checkpoints
/// under save_state/load_state so kill/resume stays bitwise identical.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/ranking.hpp"
#include "telemetry/metrics.hpp"
#include "util/time.hpp"

namespace tmprof::telemetry {
class Telemetry;
}  // namespace tmprof::telemetry

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::tiering {

class TenantArbiter;

using core::PageKey;
using core::PageKeyHash;

enum class AdmissionMode : std::uint8_t {
  Off,       ///< gate disabled: mover behavior bitwise identical to pre-gate
  Static,    ///< fixed benefit floor (config.min_benefit)
  Adaptive,  ///< floor retuned each epoch from the controller's own registry
};

[[nodiscard]] constexpr std::string_view to_string(
    AdmissionMode mode) noexcept {
  switch (mode) {
    case AdmissionMode::Off: return "off";
    case AdmissionMode::Static: return "static";
    case AdmissionMode::Adaptive: return "adaptive";
  }
  return "?";
}

/// Parse an `--admission=` value. Throws std::invalid_argument enumerating
/// the valid mode names on anything unrecognized.
[[nodiscard]] AdmissionMode parse_admission_mode(const std::string& text);

/// Epochs of per-page rank history kept for benefit prediction.
inline constexpr std::uint32_t kHistoryEpochs = 4;
/// Cap on the escalating ping-pong cool-down span, in epochs.
inline constexpr std::uint32_t kMaxCooldownEpochs = 64;
/// History-map compaction bound: past it, entries with no recent sighting,
/// live cool-down or recent demotion are dropped (by value predicate).
inline constexpr std::size_t kMaxHistoryPages = std::size_t{1} << 16;

struct AdmissionConfig {
  AdmissionMode mode = AdmissionMode::Off;
  /// Distinct recent epochs a candidate must appear in the ranking before
  /// a promotion is admitted, in [1, kHistoryEpochs]. 2 (default) filters
  /// one-epoch wonders: a page whose heat does not survive a single epoch
  /// boundary is exactly the page whose migration pays cost for no future
  /// hits.
  std::uint32_t min_history = 2;
  /// Benefit floor: Static rejects candidates scoring below it; Adaptive
  /// uses it as the floor the retuned threshold decays back to.
  std::uint64_t min_benefit = 0;
  /// Simulated migration bandwidth in bytes per simulated second
  /// (0 = unlimited; the token bucket is bypassed entirely).
  std::uint64_t bandwidth_bytes_per_sec = 0;
  /// Token-bucket depth in bytes: the largest burst admitted at once.
  std::uint64_t burst_bytes = 4u << 20;
  /// Ping-pong window K: a page demoted then re-requested within K epochs
  /// earns a cool-down of min(K << (strikes - 1), kMaxCooldownEpochs)
  /// epochs. In [1, kMaxCooldownEpochs].
  std::uint32_t cooldown_epochs = 4;
  /// Storm brake: admitted promotions per epoch (0 = unlimited).
  std::uint64_t max_moves_per_epoch = 0;
};

/// Per-candidate verdict, in pipeline order. Stable numeric values: the
/// mover caches verdicts per apply in a u8 map.
enum class AdmissionDecision : std::uint8_t {
  Admit = 0,
  Cooled = 1,           ///< ping-pong cool-down active (or just triggered)
  RejectBenefit = 2,    ///< below the benefit floor / evidence requirement
  Shed = 3,             ///< storm brake: per-epoch admission cap reached
  RejectBandwidth = 4,  ///< token bucket short of the move's bytes
};

class AdmissionController {
 public:
  AdmissionController() : AdmissionController(AdmissionConfig{}) {}
  explicit AdmissionController(const AdmissionConfig& config);

  [[nodiscard]] bool enabled() const noexcept {
    return config_.mode != AdmissionMode::Off;
  }
  [[nodiscard]] const AdmissionConfig& config() const noexcept {
    return config_;
  }

  /// Epoch-barrier entry, called once at the top of each mover apply:
  /// refills the bandwidth bucket to `now`, folds the epoch's ranking into
  /// the per-page history, recounts cooling pages, resets the storm brake
  /// and (Adaptive) retunes the benefit floor from the controller's own
  /// registry tallies. No-op when the mode is Off.
  void begin_epoch(util::SimNs now,
                   const std::vector<core::PageRank>& ranking);

  /// Score one promotion candidate of `bytes` bytes. Mutates bucket and
  /// brake state on Admit and cool-down state on a detected ping-pong; the
  /// caller must consult each candidate at most once per epoch.
  [[nodiscard]] AdmissionDecision decide(const PageKey& key,
                                         std::uint64_t bytes);

  /// Mover outcome hook: a demotion landed. Arms the ping-pong detector.
  void note_demoted(const PageKey& key);

  /// Predicted benefit (expected fast-tier hits saved next epoch): the
  /// rank history decayed geometrically by age, sum over the window.
  [[nodiscard]] std::uint64_t benefit(const PageKey& key) const;
  /// Distinct recent epochs of ranking evidence inside the window.
  [[nodiscard]] std::uint32_t evidence(const PageKey& key) const;

  [[nodiscard]] std::uint64_t tokens() const noexcept { return tokens_; }
  [[nodiscard]] std::uint64_t threshold() const noexcept {
    return threshold_;
  }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  /// Epochs in which at least one move was shed or bandwidth-rejected.
  [[nodiscard]] std::uint64_t throttled_epochs() const noexcept {
    return throttled_epochs_;
  }
  [[nodiscard]] std::size_t history_pages() const noexcept {
    return history_.size();
  }

  /// The controller's own metrics registry (mover_rejected_total,
  /// mover_cooled_total, mover_shed_total, mover_admitted_total,
  /// mover_cooldown_pages, admission_tokens, admission_threshold). The
  /// Adaptive mode reads these values back — there are no private tallies
  /// to drift from what operators see.
  [[nodiscard]] const telemetry::MetricsRegistry& registry() const noexcept {
    return registry_;
  }

  /// Mirror the controller's counters/gauges into an external telemetry
  /// sink (docs/OBSERVABILITY.md). Null detaches. Never registers anything
  /// when the mode is Off, so disabled runs export byte-identical files.
  void set_telemetry(telemetry::Telemetry* telemetry);

  /// Attach (or with null, detach) the fleet tenant arbiter
  /// (docs/CONSOLIDATION.md): admitted bytes are additionally charged
  /// against the tenant's per-epoch bandwidth sub-budget, after the global
  /// bucket has been found sufficient. Null keeps the controller bitwise
  /// identical to its pre-arbitration self.
  void set_tenant_arbiter(TenantArbiter* arbiter) noexcept {
    arbiter_ = arbiter;
  }

  /// Checkpoint hooks: epoch counter, token bucket (tokens, refill carry,
  /// last refill time), adaptive threshold, brake state, per-page history
  /// in ascending key order, and the internal registry.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  /// Ring capacity for per-page rank history.
  static constexpr std::uint32_t kMaxHistory = 8;
  static_assert(kHistoryEpochs <= kMaxHistory);

  struct PageHistory {
    std::uint64_t ranks[kMaxHistory] = {};  ///< [0] = most recent sighting
    std::uint32_t last_epoch = 0;           ///< epoch of ranks[0] (0 = none)
    std::uint32_t promote_epoch = 0;        ///< last admission (0 = never)
    std::uint32_t demote_epoch = 0;         ///< last demotion (0 = never)
    std::uint32_t cooldown_until = 0;       ///< cooled through this epoch
    std::uint8_t len = 0;                   ///< live entries in ranks[]
    std::uint8_t strikes = 0;               ///< consecutive ping-pongs
  };

  void refill(util::SimNs now);
  /// history_[key], noting a newly inserted key for save_state's order.
  PageHistory& history_of(const PageKey& key);
  void record(const PageKey& key, std::uint64_t rank);
  void compact();
  void retune();
  [[nodiscard]] std::uint64_t benefit_of(const PageHistory& h) const;
  [[nodiscard]] std::uint32_t evidence_of(const PageHistory& h) const;
  void mark_throttled();

  AdmissionConfig config_;
  core::PageMap<PageHistory> history_;
  core::PageMap<PageHistory> compact_scratch_;
  /// history_'s keys in ascending order as of the last save, once
  /// `keys_sorted_`; `new_keys_` holds the keys inserted since, so a save
  /// sorts only those and merges them in. compact() and load_state drop
  /// the order, and the next save rebuilds it with a full sort.
  mutable std::vector<PageKey> sorted_keys_;
  mutable std::vector<PageKey> new_keys_;
  mutable bool keys_sorted_ = false;
  std::uint32_t epoch_ = 0;  ///< 1-based; 0 = begin_epoch never called
  std::uint64_t tokens_ = 0;
  std::uint64_t refill_carry_ = 0;  ///< sub-token remainder, < kSecond
  util::SimNs last_refill_ns_ = 0;
  std::uint64_t threshold_ = 0;  ///< live benefit floor (Adaptive retunes)
  std::uint64_t admitted_this_epoch_ = 0;
  std::uint64_t cooldown_pages_ = 0;
  std::uint64_t throttled_epochs_ = 0;
  bool throttled_this_epoch_ = false;
  /// Registry snapshot retune() compares against (previous epoch's
  /// cooled/shed/bandwidth-rejected totals).
  std::uint64_t last_pressure_total_ = 0;
  TenantArbiter* arbiter_ = nullptr;  ///< not owned; may be null

  telemetry::MetricsRegistry registry_;
  telemetry::Counter c_rejected_;
  telemetry::Counter c_cooled_;
  telemetry::Counter c_shed_;
  telemetry::Counter c_admitted_;
  telemetry::Counter c_bandwidth_rejected_;
  telemetry::Gauge g_cooldown_pages_;
  telemetry::Gauge g_tokens_;
  telemetry::Gauge g_threshold_;
  /// External mirrors (null unless a sink is attached and the gate is on).
  telemetry::Counter x_rejected_;
  telemetry::Counter x_cooled_;
  telemetry::Counter x_shed_;
  telemetry::Counter x_admitted_;
  telemetry::Gauge x_cooldown_pages_;
  telemetry::Gauge x_tokens_;
  telemetry::Gauge x_threshold_;
};

}  // namespace tmprof::tiering
