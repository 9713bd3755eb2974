#include "sim/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace tmprof::sim {

std::vector<std::uint32_t> weighted_schedule(std::span<const double> weights) {
  TMPROF_EXPECTS(!weights.empty());
  const double min_weight = std::min(1e9, std::ranges::min(weights));
  std::vector<std::uint32_t> remaining(weights.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const auto slots =
        static_cast<std::uint32_t>(std::lround(weights[i] / min_weight));
    remaining[i] = std::max(1U, slots);
    total += remaining[i];
  }
  std::vector<std::uint32_t> schedule;
  schedule.reserve(total);
  bool any = true;
  while (any) {
    any = false;
    for (std::uint32_t i = 0; i < remaining.size(); ++i) {
      if (remaining[i] > 0) {
        schedule.push_back(i);
        --remaining[i];
        any = true;
      }
    }
  }
  return schedule;
}

void ShardSchedule::rebuild(std::span<const std::uint32_t> schedule,
                            std::span<const std::uint32_t> shard_of,
                            std::uint32_t shards) {
  len_ = schedule.size();
  slices_.assign(shards, Slice{});
  for (Slice& slice : slices_) slice.before.reserve(len_ + 1);
  for (std::size_t p = 0; p < len_; ++p) {
    const std::uint32_t proc = schedule[p];
    TMPROF_EXPECTS(shard_of[proc] < shards);
    for (Slice& slice : slices_) {
      slice.before.push_back(static_cast<std::uint32_t>(slice.procs.size()));
    }
    slices_[shard_of[proc]].procs.push_back(proc);
  }
  for (Slice& slice : slices_) {
    slice.before.push_back(static_cast<std::uint32_t>(slice.procs.size()));
  }
}

}  // namespace tmprof::sim
