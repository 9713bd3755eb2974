#include "tiering/hitrate.hpp"

#include "util/assert.hpp"

namespace tmprof::tiering {

HitrateResult evaluate_policy(Policy& policy, const EpochSeries& series,
                              const HitrateOptions& options) {
  TMPROF_EXPECTS(options.capacity_frames > 0);
  HitrateResult result;
  PlacementSet placement;
  std::vector<PageKey> first_touch_accumulated;
  // The epoch loop reuses these across iterations: each epoch's ranking is
  // built exactly once (it serves both as the Oracle's observed truth for
  // epoch e and as History's input for epoch e+1), into capacity-retaining
  // buffers.
  std::vector<core::PageRank> prev_ranking;
  std::vector<core::PageRank> epoch_ranking;
  core::RankingScratch scratch;
  core::TruthMap observed_truth;

  for (std::size_t e = 0; e < series.epochs.size(); ++e) {
    const EpochData& data = series.epochs[e];
    for (const PageKey& key : data.new_pages) {
      first_touch_accumulated.push_back(key);
    }

    core::build_ranking_into(data.observed, options.fusion,
                             options.trace_weight, scratch, epoch_ranking);

    PolicyContext ctx;
    ctx.capacity_frames = options.capacity_frames;
    ctx.current = &placement;
    ctx.observed_ranking = &prev_ranking;   // what the profiler saw in e-1
    // What Oracle is allowed to know about epoch e.
    if (options.oracle_from_observed) {
      observed_truth.clear();
      observed_truth.reserve(epoch_ranking.size());
      for (const core::PageRank& pr : epoch_ranking) {
        observed_truth[pr.key] = pr.rank;
      }
      ctx.next_truth = &observed_truth;
    } else {
      ctx.next_truth = &data.truth;
    }
    ctx.first_touch_order = &first_touch_accumulated;
    ctx.page_sizes = &series.page_sizes;

    PlacementSet next = policy.choose(ctx);
    for (const PageKey& key : next) {
      if (placement.count(key) == 0) ++result.promotions;
    }
    placement = std::move(next);

    std::uint64_t hits = 0;
    for (const auto& [key, count] : data.truth) {
      if (placement.count(key) != 0) hits += count;
    }
    result.tier1_accesses += hits;
    result.total_accesses += data.truth_total;
    result.per_epoch.push_back(
        data.truth_total == 0
            ? 1.0
            : static_cast<double>(hits) /
                  static_cast<double>(data.truth_total));

    // Epoch e's ranking becomes next iteration's "previous" without a copy.
    prev_ranking.swap(epoch_ranking);
  }
  result.overall = result.total_accesses == 0
                       ? 1.0
                       : static_cast<double>(result.tier1_accesses) /
                             static_cast<double>(result.total_accesses);
  return result;
}

}  // namespace tmprof::tiering
