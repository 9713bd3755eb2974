#pragma once
/// \file autonuma.hpp
/// AutoNUMA-style hint-fault profiler (Section II-A). Linux's NUMA
/// balancing periodically marks page portions (e.g., 256 MB) inaccessible;
/// the next touch raises a hint fault that identifies the accessing task
/// and page, after which access is restored. The paper cites this as the
/// mainline-kernel way to gain access visibility — and as a cautionary
/// tale, because each observation costs a full page fault plus the
/// periodic PTE rewriting.
///
/// Implemented on the BadgerTrap poisoning substrate with
/// unpoison-on-fault semantics. Serves as a comparison profiler: its
/// observations plug into the same ranking/policy pipeline as TMP's.

#include <cstdint>
#include <unordered_map>

#include "core/ranking.hpp"
#include "monitors/badgertrap.hpp"
#include "sim/system.hpp"

namespace tmprof::core {

/// Hint-fault handler cost (full fault + task accounting; this is the
/// overhead the paper contrasts with TMP's monitors).
inline constexpr util::SimNs kAutoNumaFaultCostNs = 2 * util::kMicrosecond;

struct AutoNumaConfig {
  /// Pages protected per process per pass (a "page portion"; Linux uses
  /// 256 MB ≈ 65536 pages — scale with footprints).
  std::uint64_t window_pages = 4096;
};

/// Periodic profiler: each pass protects the next window of each tracked
/// process's pages; hint faults during the following interval are the
/// access samples.
class AutoNumaProfiler {
 public:
  AutoNumaProfiler(sim::System& system, const AutoNumaConfig& config);
  AutoNumaProfiler(const AutoNumaProfiler&) = delete;
  AutoNumaProfiler& operator=(const AutoNumaProfiler&) = delete;
  ~AutoNumaProfiler();

  /// Run one protect pass: advance each process's window and mark it
  /// inaccessible. Returns the modeled cost (also charged to the clock).
  util::SimNs protect_pass();

  /// Hand out the samples observed since the previous call (hint-fault
  /// counts per page), clearing them.
  [[nodiscard]] EpochObservation end_epoch();

  /// Total modeled profiling cost so far: protect passes + fault handling
  /// beyond the fault latency already charged inline by the trap.
  [[nodiscard]] util::SimNs overhead_ns() const noexcept {
    return overhead_ns_;
  }
  [[nodiscard]] std::uint64_t faults_taken() const noexcept {
    return faults_taken_;
  }

 private:
  sim::System& system_;
  AutoNumaConfig config_;
  monitors::BadgerTrap trap_;
  /// Per-process cursor into its page list (windows slide round-robin).
  std::unordered_map<mem::Pid, std::uint64_t> cursor_;
  /// Fault counts at the previous end_epoch, to compute deltas.
  std::unordered_map<PageKey, std::uint64_t, PageKeyHash> last_faults_;
  std::uint32_t epoch_ = 0;
  util::SimNs overhead_ns_ = 0;
  std::uint64_t faults_taken_ = 0;
};

}  // namespace tmprof::core
