#pragma once
/// \file stream.hpp
/// Lock-free streaming sample transport + incremental top-K ranking
/// (docs/STREAMING.md). Replaces the epoch-barrier swap-and-clear handoff
/// between the per-core monitors and the ranking pipeline: each
/// (monitor, core) lane owns a bounded SPSC ring of sequence-numbered
/// StreamRecords, the driver consumes them on the main thread — while
/// worker shards are still executing — and folds each record into the open
/// epoch's observation maps and into a StreamRanker that maintains the
/// decayed top-K incrementally. By the time the epoch barrier arrives, the
/// merge work is already done and the barrier shrinks to a drain-and-seal.
///
/// Determinism: per-lane record content is a pure function of the
/// simulation (PR-1 per-core RNG streams), count folds commute, and the
/// streaming fault key is (epoch, lane, seq) — so the sealed maps are
/// bitwise identical no matter how production and consumption interleave.
/// Ring overflow spills to a lane-local buffer instead of losing the
/// record (a timing-dependent loss would break thread-count invariance);
/// only the drop *counters* vary with scheduling.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ranking.hpp"
#include "monitors/event.hpp"
#include "util/ring.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::core {

/// Streaming-transport knobs, selected per run via DriverConfig::stream.
/// Disabled by default: every golden was recorded with the barrier path,
/// and `enabled = false` keeps it bitwise unchanged.
struct StreamConfig {
  bool enabled = false;
  /// Per-lane ring capacity in records; must be a power of two >= 2. Full
  /// rings spill (counted, never lossy) until the consumer catches up.
  std::uint32_t ring_capacity = 1024;
  /// Size of the incrementally-maintained advisory top-K (RankOrder
  /// semantics, never 0/full: the point is a bounded mid-epoch heap).
  std::uint32_t top_k = 256;
  /// Heat carried across epochs decays by `heat >> decay_shift` at each
  /// seal; >= 64 clears all history (per-epoch top-K only).
  std::uint32_t decay_shift = 1;

  friend bool operator==(const StreamConfig&, const StreamConfig&) = default;
};

/// Exact incremental top-K over monotonically growing per-page heat.
///
/// A size-K binary min-heap (weakest member at the root, "weak" meaning
/// last under RankOrder: lowest heat, ties broken by *descending* key) plus
/// a FlatHashMap from page to heap position. Because heat only grows
/// between seals, membership can only change when an `add` pushes a page
/// past the current root — so the heap is the exact RankOrder top-K of the
/// heat map after every single add, at O(log K) per update.
///
/// At the seal, all heat decays by `decay_shift` and the heap is rebuilt
/// canonically (fold_sorted + nth_element), so barrier-visible state is a
/// pure function of map content — independent of the add order that built
/// it. Mid-epoch snapshots via ranking_into() are advisory: exact for the
/// records consumed so far, which depends on how far the pump has run.
class StreamRanker {
 public:
  StreamRanker() = default;
  StreamRanker(std::uint32_t top_k, std::uint32_t decay_shift) {
    configure(top_k, decay_shift);
  }

  /// (Re)configure; drops all state. `top_k` must be >= 1.
  void configure(std::uint32_t top_k, std::uint32_t decay_shift);

  [[nodiscard]] std::uint32_t top_k() const noexcept { return k_; }
  [[nodiscard]] std::uint32_t decay_shift() const noexcept {
    return decay_shift_;
  }
  /// Pages with non-zero decayed heat currently tracked.
  [[nodiscard]] std::size_t tracked() const noexcept { return heat_.size(); }

  /// Fold one record's weight into `key`'s heat and maintain the top-K.
  void add(const PageKey& key, std::uint64_t weight);

  /// Current top-K as a descending RankOrder ranking (rank = heat; the
  /// per-source fields stay 0 — fused source breakdowns remain the sealed
  /// ranking's job). Clears and refills `out`.
  void ranking_into(std::vector<PageRank>& out) const;

  /// Total heat currently attributed to `key` (0 if untracked).
  [[nodiscard]] std::uint64_t heat_of(const PageKey& key) const;

  /// Epoch seal: decay every page's heat, drop the cooled-to-zero ones,
  /// and rebuild the heap canonically from the surviving map content.
  void seal();

  void clear();

  /// Checkpoint hooks: configuration echo + the decayed heat map in
  /// ascending key order; the heap is rebuilt canonically on load. A
  /// geometry mismatch throws CkptError("stream", ...).
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  struct Entry {
    PageKey key;
    std::uint64_t heat = 0;
  };

  /// Strict total order: does `a` outrank `b`? (RankOrder over heat.)
  [[nodiscard]] static bool stronger(const Entry& a, const Entry& b) noexcept {
    if (a.heat != b.heat) return a.heat > b.heat;
    return a.key < b.key;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void set_pos(std::size_t i);
  void rebuild_heap();

  static constexpr std::uint32_t kNotInHeap = 0xffffffffU;

  std::uint32_t k_ = 256;
  std::uint32_t decay_shift_ = 1;
  PageMap<std::uint64_t> heat_;
  PageMap<std::uint32_t> pos_;  ///< heap index, or kNotInHeap
  std::vector<Entry> heap_;     ///< weakest member at index 0
  std::vector<Entry> scratch_;  ///< seal/rebuild staging (capacity retained)
};

/// The per-lane ring set: one SPSC ring per monitor lane. Trace lanes map
/// 1:1 to simulated cores (worker-thread producers); the A-bit scanner and
/// the DevMon report each get a single main-thread lane, so every sample
/// source hands off through the same transport and the same record
/// accounting.
class StreamTransport {
 public:
  using Ring = util::SpscRing<monitors::StreamRecord>;

  StreamTransport(const StreamConfig& config, std::uint32_t cores);

  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint32_t lanes() const noexcept {
    return static_cast<std::uint32_t>(rings_.size());
  }
  [[nodiscard]] std::uint32_t trace_lanes() const noexcept { return cores_; }
  [[nodiscard]] std::uint32_t abit_lane() const noexcept { return cores_; }
  [[nodiscard]] std::uint32_t dev_lane() const noexcept { return cores_ + 1; }
  [[nodiscard]] Ring& ring(std::uint32_t lane) { return *rings_[lane]; }
  [[nodiscard]] const Ring& ring(std::uint32_t lane) const {
    return *rings_[lane];
  }

  /// Ring-full events since construction or checkpoint restore (records
  /// that took the spill path; no evidence is lost). Scheduling-dependent:
  /// telemetry only, never part of the determinism bar.
  [[nodiscard]] std::uint64_t drops_total() const noexcept;
  /// Deepest per-lane occupancy since the last reset_high_water().
  [[nodiscard]] std::uint64_t high_water() const noexcept;
  void reset_high_water() noexcept;

  /// Restore the drop tally carried from a checkpoint (rings restart empty
  /// and at zero; the carried base keeps the exported total monotone).
  void set_carried_drops(std::uint64_t drops) noexcept {
    carried_drops_ = drops;
  }

 private:
  StreamConfig config_;
  std::uint32_t cores_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::uint64_t carried_drops_ = 0;
};

}  // namespace tmprof::core
