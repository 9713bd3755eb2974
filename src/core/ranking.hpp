#pragma once
/// \file ranking.hpp
/// Hotness ranking — Step 1 of the TMP-powered placement mechanism. An
/// epoch's per-page observations from each profiling source are fused into
/// a single rank; the paper uses a plain sum because Fig. 2 shows the two
/// event populations have comparable magnitude. Alternative fusion modes
/// are provided for the ablation benches.
///
/// All per-page accumulators here are util::FlatHashMap specializations
/// (docs/PERFORMANCE.md): contiguous open-addressing tables that retain
/// capacity across clear(), so the steady-state epoch loop touches no
/// allocator. The `_into` variants reuse caller-owned scratch for the same
/// reason; the value-returning forms remain for cold paths and tests.

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/page_key.hpp"
#include "mem/addr.hpp"
#include "util/flat_map.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::core {

/// Flat map keyed by page identity. The default-initialized value of a
/// fresh slot is `V{}`, matching unordered_map's operator[] semantics.
template <typename V>
using PageMap = util::FlatHashMap<PageKey, V, PageKeyHash>;

/// Per-page event tallies (A-bit hits, trace samples, PML writes).
using PageCountMap = PageMap<std::uint32_t>;
/// Per-page ground-truth access counts (can exceed 2^32 over long runs).
using TruthMap = PageMap<std::uint64_t>;

/// Per-page observations of one epoch, as collected by the TMP driver.
///
/// Under the sketch hotness front-end (DriverConfig::hotness) these maps
/// hold the candidate pages' one-sided count-min estimates instead of
/// exact tallies: a page's value is >= its true count, and pages below the
/// candidate admission floor are absent. Every consumer in this header —
/// ranking fusion and checkpoint serialization — is
/// order/byte-stable over whatever counts it is given and makes no
/// exactness assumption. The Fig. 5 CDFs, which need exact counts, tally
/// the raw samples themselves (bench/fig5_cdf.cpp).
struct EpochObservation {
  std::uint32_t epoch = 0;
  /// A-bit observations per page (head-keyed; 1 per scan that saw A set).
  PageCountMap abit;
  /// Trace samples per page (head-keyed; huge pages aggregate their 4 KiB
  /// sample addresses).
  PageCountMap trace;
  /// Dirty-page log entries per page (PML; only populated when the driver
  /// enables Page-Modification Logging). Counts D-bit 0→1 transitions, a
  /// write-history signal for NVM-write-averse policies.
  PageCountMap writes;
  /// Device-side hot-page counts per page (DevMon top-K reports; only
  /// populated when DriverConfig::devmon is enabled). Counts every line
  /// fill the page's slow-tier device served — no sampling sparsity, but
  /// zero for fast-tier residents (the device is blind to other tiers).
  PageCountMap devmon;

  void clear() {
    abit.clear();
    trace.clear();
    writes.clear();
    devmon.clear();
  }

  /// Constant-time exchange — the driver hands a finished epoch out and
  /// takes the (cleared, capacity-retaining) previous buffers back.
  void swap(EpochObservation& other) noexcept {
    std::swap(epoch, other.epoch);
    abit.swap(other.abit);
    trace.swap(other.trace);
    writes.swap(other.writes);
    devmon.swap(other.devmon);
  }
};

/// How to fuse the sources into one rank.
enum class FusionMode : std::uint8_t {
  Sum,        ///< abit + trace (the paper's choice)
  AbitOnly,   ///< "piecemeal" baseline 1
  TraceOnly,  ///< "piecemeal" baseline 2
  Max,        ///< max(abit, trace)
  Weighted,   ///< abit + weight * trace
  SumDev,     ///< abit + trace + devmon_weight * devmon (docs/TOPOLOGY.md)
  DevOnly,    ///< devmon alone (device-counter ablation baseline)
};

[[nodiscard]] constexpr std::string_view to_string(FusionMode mode) noexcept {
  switch (mode) {
    case FusionMode::Sum: return "sum";
    case FusionMode::AbitOnly: return "abit-only";
    case FusionMode::TraceOnly: return "trace-only";
    case FusionMode::Max: return "max";
    case FusionMode::Weighted: return "weighted";
    case FusionMode::SumDev: return "sum-dev";
    case FusionMode::DevOnly: return "devmon-only";
  }
  return "?";
}

/// One ranked page.
struct PageRank {
  PageKey key;
  std::uint64_t rank = 0;
  std::uint32_t abit = 0;
  std::uint32_t trace = 0;
  std::uint32_t writes = 0;  ///< PML evidence (0 unless PML enabled)
  std::uint32_t devmon = 0;  ///< device-counter evidence (0 unless DevMon on)
};

/// Fusion mode plus its per-source weights, bundled so call sites that grow
/// a new signal don't grow a new positional double. The two-argument
/// build_ranking* forms below forward here with default weights.
struct FusionParams {
  FusionMode mode = FusionMode::Sum;
  double trace_weight = 1.0;   ///< FusionMode::Weighted
  double devmon_weight = 1.0;  ///< FusionMode::SumDev
};

/// The strict total order rankings are sorted by: descending rank, ties
/// broken by ascending key. Total over distinct pages, so the sorted
/// ranking is a pure function of the fused counts, independent of the
/// merge table's slot order.
/// (A functor rather than a free function so std::sort can inline it.)
struct RankOrder {
  [[nodiscard]] bool operator()(const PageRank& a,
                                const PageRank& b) const noexcept {
    if (a.rank != b.rank) return a.rank > b.rank;
    return a.key < b.key;
  }
};

/// Reusable merge buffer for build_ranking_into.
/// Holds its capacity across calls; one per daemon/evaluator is enough.
/// Maps each page to its index in the output vector under construction —
/// a u32 payload keeps the probe table at half the footprint of mapping
/// straight to PageRank, and the fused entries build up sequentially in
/// the output instead of being strided back out of the table.
struct RankingScratch {
  PageMap<std::uint32_t> index;
};

/// Fuse an epoch's observations into a descending-rank list.
/// \param trace_weight  only used by FusionMode::Weighted.
[[nodiscard]] std::vector<PageRank> build_ranking(
    const EpochObservation& obs, FusionMode mode, double trace_weight = 1.0);

/// Allocation-reusing form: merges into `scratch`, writes the sorted
/// ranking into `out` (cleared first, capacity retained).
void build_ranking_into(const EpochObservation& obs, FusionMode mode,
                        double trace_weight, RankingScratch& scratch,
                        std::vector<PageRank>& out);

/// Full-parameter forms (all fusion weights). The FusionMode overloads
/// above forward here with FusionParams defaults.
void build_ranking_into(const EpochObservation& obs,
                        const FusionParams& params, RankingScratch& scratch,
                        std::vector<PageRank>& out);

/// Checkpoint serialization helpers. Maps are written in ascending PageKey
/// order so the byte stream is independent of in-memory slot order. These
/// round-trip whatever counts the maps hold — exact tallies or sketch-mode
/// estimates — without interpreting them.
void save_page_counts(util::ckpt::Writer& w, const PageCountMap& counts);
void load_page_counts(util::ckpt::Reader& r, PageCountMap& counts);
void save_observation(util::ckpt::Writer& w, const EpochObservation& obs);
void load_observation(util::ckpt::Reader& r, EpochObservation& obs);
void save_ranking(util::ckpt::Writer& w, const std::vector<PageRank>& ranking);
void load_ranking(util::ckpt::Reader& r, std::vector<PageRank>& ranking);

}  // namespace tmprof::core
