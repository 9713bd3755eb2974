#pragma once
/// \file swap.hpp
/// Swap-style far memory — the alternative architecture the paper argues
/// *against* (Section I / II-A): tier 2 is exposed as a paging device, not
/// as addressable memory. Touching a swapped-out page raises a major
/// fault; the kernel brings the whole page into tier 1 and evicts a
/// victim the other way. "Accessing a single cache line via tier 2 swap
/// produces a costly page fault and is followed by the movement of an
/// entire data block" — this module makes that cost measurable against
/// TMP's in-place tiering (bench/arch_compare).
///
/// Implementation: swapped-out pages are marked with the PTE poison bit;
/// the System's protection-fault hook lands here, which swaps the page in
/// (migrate to tier 1), evicts a FIFO victim (migrate to tier 2 + mark
/// swapped), and charges the major-fault cost.

#include <cstdint>
#include <deque>
#include <unordered_set>

#include "core/page_key.hpp"
#include "sim/system.hpp"
#include "util/time.hpp"

namespace tmprof::tiering {

class SwapFarMemory {
 public:
  explicit SwapFarMemory(sim::System& system);
  SwapFarMemory(const SwapFarMemory&) = delete;
  SwapFarMemory& operator=(const SwapFarMemory&) = delete;
  ~SwapFarMemory();

  /// Mark every page currently resident in tier 2 as swapped out and
  /// register resident tier-1 pages in the eviction queue. Repeatable:
  /// call after each epoch so pages first-touch-allocated into tier 2
  /// since the last sweep also become swap-backed (kswapd's steady-state
  /// role). Already-tracked pages are not re-registered.
  void seal();

  [[nodiscard]] std::uint64_t major_faults() const noexcept {
    return major_faults_;
  }
  [[nodiscard]] std::uint64_t pages_swapped_in() const noexcept {
    return swapped_in_;
  }

 private:
  util::SimNs handle_fault(sim::Process& proc, mem::VirtAddr vaddr,
                           bool is_store);
  void mark_swapped(mem::Pid pid, mem::VirtAddr page_va);

  sim::System& system_;
  /// FIFO of tier-1-resident pages (eviction order).
  std::deque<core::PageKey> resident_fifo_;
  /// Pages ever registered (bounds FIFO growth across repeated seals).
  std::unordered_set<core::PageKey, core::PageKeyHash> tracked_;
  std::uint64_t major_faults_ = 0;
  std::uint64_t swapped_in_ = 0;
};

}  // namespace tmprof::tiering
