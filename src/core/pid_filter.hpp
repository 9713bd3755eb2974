#pragma once
/// \file pid_filter.hpp
/// Process filtering — TMP's second overhead optimization (Section III-B4).
/// A-bit collection cost scales with the number of page tables walked, so
/// the daemon only tracks processes using at least 5% CPU or 10% of memory,
/// re-evaluated once per second.

#include <cstdint>
#include <vector>

#include "mem/addr.hpp"
#include "sim/process.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::core {

struct PidFilterConfig {
  /// Restrictive mode keeps only the top-N processes by combined share,
  /// bounding overhead regardless of how many qualify (0 = unlimited).
  std::uint32_t restrict_top_n = 0;
};

class PidFilter {
 public:
  explicit PidFilter(const PidFilterConfig& config = {});

  /// Select which processes to profile. CPU share is computed from each
  /// process's ops issued since the previous call; memory share from RSS.
  [[nodiscard]] std::vector<mem::Pid> select(
      const std::vector<sim::Process*>& processes);

  /// PIDs always selected regardless of CPU/memory share, and kept through
  /// the restrictive top-N trim (latency tenants in a consolidated fleet,
  /// docs/CONSOLIDATION.md). Empty (default) leaves selection bitwise
  /// identical to the pre-consolidation filter. Not checkpointed: the
  /// owner re-attaches it on construction, like the config.
  void set_pinned(std::vector<mem::Pid> pids) { pinned_ = std::move(pids); }

  /// Checkpoint hooks: the per-pid ops baseline used for CPU-share deltas.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  [[nodiscard]] bool is_pinned(mem::Pid pid) const noexcept;

  PidFilterConfig config_;
  std::vector<mem::Pid> pinned_;
  std::vector<std::pair<mem::Pid, std::uint64_t>> last_ops_;
};

}  // namespace tmprof::core
