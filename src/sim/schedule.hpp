#pragma once
/// \file schedule.hpp
/// The engines' process rotation: a cyclic weighted schedule of process
/// indices, and each shard's slice of it. The serial engine walks the
/// schedule itself; a sharded-engine shard walks only its own positions,
/// in the same cyclic order, so its cost follows the ops it executes.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tmprof::sim {

/// Weighted rotation over processes 0..n-1: process i appears
/// max(1, round(weights[i] / min weight)) times, interleaved by (slot
/// index within the process, process index) so each process's slots
/// spread out rather than cluster. Requires at least one weight.
[[nodiscard]] std::vector<std::uint32_t> weighted_schedule(
    std::span<const double> weights);

/// Each shard's positions in a cyclic schedule, with a prefix count per
/// position, so a shard visits only its own ops among any window of
/// schedule positions.
class ShardSchedule {
 public:
  /// `schedule[p]` is the process at position p; `shard_of[i]` (< shards)
  /// is process i's shard.
  void rebuild(std::span<const std::uint32_t> schedule,
               std::span<const std::uint32_t> shard_of, std::uint32_t shards);

  /// Calls `fn(process)` for each of shard `s`'s positions among the `ops`
  /// positions that start at `cursor` (< the schedule length) and wrap
  /// cyclically, in that order: exactly the processes a walk of all `ops`
  /// positions would find on shard `s`.
  template <class Fn>
  void walk(std::uint32_t s, std::size_t cursor, std::uint64_t ops,
            Fn&& fn) const {
    const Slice& slice = slices_[s];
    const std::size_t own = slice.procs.size();
    if (own == 0) return;
    // Whole turns of the schedule, then the partial window [cursor,
    // cursor + rest), which may wrap past the end.
    const std::size_t rest = static_cast<std::size_t>(ops % len_);
    const std::size_t first = slice.before[cursor];
    const std::size_t in_rest =
        cursor + rest <= len_
            ? slice.before[cursor + rest] - first
            : own - first + slice.before[cursor + rest - len_];
    const std::uint64_t count = ops / len_ * own + in_rest;
    std::size_t k = first == own ? 0 : first;
    for (std::uint64_t i = 0; i < count; ++i) {
      fn(slice.procs[k]);
      k = k + 1 == own ? 0 : k + 1;
    }
  }

 private:
  struct Slice {
    std::vector<std::uint32_t> procs;   ///< the shard's processes, in order
    std::vector<std::uint32_t> before;  ///< [p]: own positions before p
  };
  std::size_t len_ = 0;
  std::vector<Slice> slices_;
};

}  // namespace tmprof::sim
