#pragma once
/// \file abit.hpp
/// PTE A-bit scanner — the software profiling mechanism of Section III-B2.
/// Walks a process's page table (`mm_walk` analog), and for every present
/// leaf PTE runs the registered gather callback, which test-and-clears the
/// accessed bit (TestClearPageReferenced).
///
/// Following the paper's third optimization, clearing does NOT issue a TLB
/// shootdown by default: a still-resident TLB entry keeps translating, so
/// the next A-bit set is delayed until that entry is naturally evicted.
/// A configuration option restores the shootdown for software that needs
/// precise A bits, at the cost of one IPI burst per scanned page.

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/addr.hpp"
#include "mem/page_table.hpp"
#include "util/time.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::monitors {

/// One page observed accessed since the previous scan.
struct AbitSample {
  mem::VirtAddr page_va = 0;
  mem::Pfn pfn = 0;            ///< head frame (vm_normal_page analog)
  mem::PageSize size = mem::PageSize::k4K;
};

struct AbitConfig {
  /// Issue a shootdown for every PTE whose A bit is cleared (off by default
  /// per the paper's optimization and ptep_clear_flush_young() rationale).
  bool shootdown_on_clear = false;
  /// Cost model: visiting one PTE during the table walk.
  util::SimNs cost_per_pte_ns = 25;
  /// Cost model: one system-wide shootdown IPI burst.
  util::SimNs cost_per_shootdown_ns = 4000;
};

/// Result summary of one scan over one process.
struct AbitScanResult {
  std::uint64_t ptes_visited = 0;
  std::uint64_t pages_accessed = 0;   ///< A bits found set (and cleared)
  std::uint64_t shootdowns = 0;
  util::SimNs cost_ns = 0;
  /// The walk gave up mid-scan (injected fault): remaining processes were
  /// not scanned this epoch, so their A bits stay set for the next pass.
  bool aborted = false;
};

/// The A-bit driver.
class AbitScanner {
 public:
  /// Invalidates one page's translations system-wide; returns IPIs issued.
  /// Wired to the System's TLBs by the driver.
  using ShootdownFn =
      std::function<std::uint64_t(mem::Pid, mem::VirtAddr, mem::PageSize)>;

  explicit AbitScanner(const AbitConfig& config);

  void set_shootdown(ShootdownFn fn) { shootdown_ = std::move(fn); }

  /// Walk `table` once, clearing A bits, and call `sink(const AbitSample&)`
  /// for every accessed page. `sink` is a plain callable invoked directly,
  /// so the whole per-leaf visit inlines on the epoch hot path.
  template <typename Sink>
  AbitScanResult scan(mem::Pid pid, mem::PageTable& table, Sink&& sink) {
    AbitScanResult result;
    table.walk(
        [&](mem::VirtAddr page_va, mem::PageSize size, mem::Pte& pte) {
          ++result.ptes_visited;
          // gather_a_history(): check, save and clear the A bit.
          if (pte.test_clear_accessed()) {
            ++result.pages_accessed;
            sink(AbitSample{page_va, pte.pfn(), size});
            if (config_.shootdown_on_clear && shootdown_) {
              result.shootdowns += shootdown_(pid, page_va, size);
            }
          }
        });
    result.cost_ns = result.ptes_visited * config_.cost_per_pte_ns +
                     result.shootdowns * config_.cost_per_shootdown_ns;
    total_ptes_visited_ += result.ptes_visited;
    total_pages_accessed_ += result.pages_accessed;
    overhead_ns_ += result.cost_ns;
    return result;
  }

  [[nodiscard]] std::uint64_t total_ptes_visited() const noexcept {
    return total_ptes_visited_;
  }
  [[nodiscard]] util::SimNs overhead_ns() const noexcept {
    return overhead_ns_;
  }

  /// Checkpoint hooks (util/ckpt.hpp).
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  AbitConfig config_;
  ShootdownFn shootdown_;
  std::uint64_t total_ptes_visited_ = 0;
  std::uint64_t total_pages_accessed_ = 0;
  util::SimNs overhead_ns_ = 0;
};

}  // namespace tmprof::monitors
