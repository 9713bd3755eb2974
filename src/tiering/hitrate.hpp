#pragma once
/// \file hitrate.hpp
/// Offline hitrate evaluation (Fig. 6): replay an epoch series through a
/// placement policy and measure the fraction of memory accesses served by
/// tier 1. The profiling source feeding the policy is selectable (A-bit
/// alone, trace alone, or TMP's combined ranking).

#include <cstdint>
#include <vector>

#include "core/ranking.hpp"
#include "tiering/epoch.hpp"
#include "tiering/policy.hpp"

namespace tmprof::tiering {

struct HitrateOptions {
  std::uint64_t capacity_frames = 0;   ///< tier-1 size in 4 KiB frames
  core::FusionMode fusion = core::FusionMode::Sum;
  double trace_weight = 1.0;
  /// What the Oracle policy is allowed to know about the coming epoch:
  /// false = the true per-page access counts (absolute upper bound);
  /// true  = the *profiler's* counts for that epoch under `fusion` (the
  ///         paper's Fig. 6 setting, which is why Oracle quality there
  ///         depends on the monitoring source).
  bool oracle_from_observed = false;
};

struct HitrateResult {
  double overall = 0.0;                ///< tier-1 accesses / total accesses
  std::vector<double> per_epoch;
  std::uint64_t total_accesses = 0;
  std::uint64_t tier1_accesses = 0;
  std::uint64_t promotions = 0;        ///< pages moved into tier 1
};

/// Replay `series` through `policy`. The policy instance carries state
/// across epochs (FirstTouch stickiness, FrequencyDecay scores), so pass a
/// fresh instance per evaluation.
[[nodiscard]] HitrateResult evaluate_policy(Policy& policy,
                                            const EpochSeries& series,
                                            const HitrateOptions& options);

}  // namespace tmprof::tiering
