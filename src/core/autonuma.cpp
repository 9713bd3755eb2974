#include "core/autonuma.hpp"

#include <vector>

#include "util/assert.hpp"

namespace tmprof::core {

namespace {
/// Cost of rewriting one PTE to no-access during the protect pass
/// (includes its share of the batched flush).
constexpr util::SimNs kProtectCostPerPageNs = 30;
}  // namespace

AutoNumaProfiler::AutoNumaProfiler(sim::System& system,
                                   const AutoNumaConfig& config)
    : system_(system), config_(config),
      trap_([] {
        monitors::BadgerTrapConfig trap_config;
        trap_config.unpoison_on_fault = true;
        // AutoNUMA's fault is pure overhead, not an emulated slow access.
        trap_config.fault_latency_ns = kAutoNumaFaultCostNs;
        trap_config.hot_extra_latency_ns = 0;
        trap_config.handler_cost_ns = 0;
        return trap_config;
      }()) {
  system_.set_badgertrap(&trap_);
}

AutoNumaProfiler::~AutoNumaProfiler() {
  // Leave no armed protections behind: a later fault would have no handler.
  for (sim::Process* proc : system_.processes()) {
    const mem::Pid pid = proc->pid();
    proc->page_table().walk(
        [&](mem::VirtAddr page_va, mem::PageSize, mem::Pte&) {
          if (trap_.is_poisoned(pid, page_va)) {
            trap_.unpoison(pid, proc->page_table(), page_va);
          }
        });
  }
  system_.set_badgertrap(nullptr);
}

util::SimNs AutoNumaProfiler::protect_pass() {
  util::SimNs cost = 0;
  for (sim::Process* proc : system_.processes()) {
    const mem::Pid pid = proc->pid();
    // Snapshot the process's mapped pages in VA order; slide the window.
    std::vector<std::pair<mem::VirtAddr, mem::PageSize>> pages;
    proc->page_table().walk(
        [&](mem::VirtAddr page_va, mem::PageSize size, mem::Pte&) {
          pages.emplace_back(page_va, size);
        });
    if (pages.empty()) continue;
    std::uint64_t& cursor = cursor_[pid];
    const std::uint32_t core = pid % system_.config().cores;
    for (std::uint64_t i = 0; i < config_.window_pages; ++i) {
      const auto& [page_va, size] = pages[cursor % pages.size()];
      cursor = (cursor + 1) % pages.size();
      trap_.poison(pid, proc->page_table(), system_.tlb(core), page_va);
      cost += kProtectCostPerPageNs;
      if (config_.window_pages >= pages.size() && i + 1 >= pages.size()) {
        break;  // whole table covered; don't loop within one pass
      }
    }
  }
  system_.advance_time(cost);
  overhead_ns_ += cost;
  return cost;
}

EpochObservation AutoNumaProfiler::end_epoch() {
  EpochObservation obs;
  obs.epoch = epoch_++;
  // Hint faults are reported per (pid, page); compute deltas vs the last
  // epoch so each observation period stands alone.
  std::uint64_t faults_this_epoch = 0;
  for (sim::Process* proc : system_.processes()) {
    const mem::Pid pid = proc->pid();
    proc->page_table().walk(
        [&](mem::VirtAddr page_va, mem::PageSize, mem::Pte&) {
          const std::uint64_t total = trap_.fault_count(pid, page_va);
          if (total == 0) return;
          const PageKey key{pid, page_va};
          const std::uint64_t last = last_faults_[key];
          if (total > last) {
            // AutoNUMA observations fill the same role as A-bit samples:
            // page-granular touch evidence from the translation path.
            obs.abit[key] = static_cast<std::uint32_t>(total - last);
            last_faults_[key] = total;
            faults_this_epoch += total - last;
          }
        });
  }
  faults_taken_ += faults_this_epoch;
  return obs;
}

}  // namespace tmprof::core
