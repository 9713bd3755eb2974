#pragma once
/// \file pid_filter.hpp
/// Process filtering — TMP's second overhead optimization (Section III-B4).
/// A-bit collection cost scales with the number of page tables walked, so
/// the daemon only tracks processes using at least 5% CPU or 10% of memory,
/// re-evaluated on every daemon tick (the paper re-evaluates once per
/// second, about one profiling epoch).

#include <cstdint>
#include <vector>

#include "mem/addr.hpp"
#include "sim/process.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::core {

class PidFilter {
 public:
  /// Select which processes to profile. CPU share is computed from each
  /// process's ops issued since the previous call; memory share from RSS.
  [[nodiscard]] std::vector<mem::Pid> select(
      const std::vector<sim::Process*>& processes);

  /// PIDs always selected regardless of CPU/memory share (latency tenants
  /// in a consolidated fleet, docs/CONSOLIDATION.md). Empty (default)
  /// leaves selection bitwise identical to the pre-consolidation filter.
  /// Not checkpointed: the owner re-attaches it on construction.
  void set_pinned(std::vector<mem::Pid> pids) { pinned_ = std::move(pids); }

  /// Checkpoint hooks: the per-pid ops baseline used for CPU-share deltas.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  [[nodiscard]] bool is_pinned(mem::Pid pid) const noexcept;

  std::vector<mem::Pid> pinned_;
  std::vector<std::pair<mem::Pid, std::uint64_t>> last_ops_;
};

}  // namespace tmprof::core
