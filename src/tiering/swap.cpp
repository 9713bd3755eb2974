#include "tiering/swap.hpp"

#include "util/assert.hpp"

namespace tmprof::tiering {

namespace {
/// Major-fault service cost: trap + I/O submission + page copy bookkeeping
/// (the in-memory "swap device" copy itself is charged via the migration
/// pair).
constexpr util::SimNs kMajorFaultNs = 8 * util::kMicrosecond;
/// Per-page migration (copy) cost, each direction.
constexpr util::SimNs kCopyCostNs = 2500;
}  // namespace

SwapFarMemory::SwapFarMemory(sim::System& system) : system_(system) {
  system_.set_fault_hook(
      [this](sim::Process& proc, mem::VirtAddr vaddr, bool is_store) {
        return handle_fault(proc, vaddr, is_store);
      });
}

SwapFarMemory::~SwapFarMemory() { system_.set_fault_hook(nullptr); }

void SwapFarMemory::mark_swapped(mem::Pid pid, mem::VirtAddr page_va) {
  sim::Process& proc = system_.process(pid);
  const mem::PteRef ref = proc.page_table().resolve(page_va);
  TMPROF_ASSERT(ref && ref.page_va == page_va);
  ref.pte->set_poisoned(true);
  const std::uint32_t core = pid % system_.config().cores;
  system_.tlb(core).invalidate_page(pid, page_va, ref.size);
}

void SwapFarMemory::seal() {
  for (sim::Process* proc : system_.processes()) {
    const mem::Pid pid = proc->pid();
    bool flushed_any = false;
    proc->page_table().walk(
        [&](mem::VirtAddr page_va, mem::PageSize, mem::Pte& pte) {
          const core::PageKey key{pid, page_va};
          if (!tracked_.insert(key).second) return;  // already managed
          if (system_.phys().tier_of(pte.pfn()) == 0) {
            resident_fifo_.push_back(key);
          } else {
            pte.set_poisoned(true);
            flushed_any = true;
          }
        });
    if (flushed_any) {
      const std::uint32_t core = pid % system_.config().cores;
      system_.tlb(core).invalidate_pid(pid);
    }
  }
}

util::SimNs SwapFarMemory::handle_fault(sim::Process& proc,
                                        mem::VirtAddr vaddr, bool is_store) {
  (void)is_store;
  const mem::PteRef ref = proc.page_table().resolve(vaddr);
  TMPROF_ASSERT(ref && ref.pte->poisoned());
  const mem::VirtAddr page_va = ref.page_va;
  ++major_faults_;
  util::SimNs cost = kMajorFaultNs;

  // Make room: evict the oldest resident page to the swap tier.
  while (system_.phys().free_frames(0) < mem::pages_in(ref.size) &&
         !resident_fifo_.empty()) {
    const core::PageKey victim = resident_fifo_.front();
    resident_fifo_.pop_front();
    sim::Process& vproc = system_.process(victim.pid);
    const mem::PteRef vref = vproc.page_table().resolve(victim.page_va);
    if (!vref || system_.phys().tier_of(vref.pte->pfn()) != 0) continue;
    if (system_.migrate_page(victim.pid, victim.page_va, 1)) {
      cost += kCopyCostNs;
      mark_swapped(victim.pid, victim.page_va);
    }
  }

  // Swap the faulting page in.
  ref.pte->set_poisoned(false);
  if (system_.phys().free_frames(0) >= mem::pages_in(ref.size) &&
      system_.migrate_page(proc.pid(), page_va, 0)) {
    cost += kCopyCostNs;
    ++swapped_in_;
    resident_fifo_.push_back(core::PageKey{proc.pid(), page_va});
  }
  // If tier 1 had no room the access proceeds from tier 2 this once (the
  // kernel analog: allocation failure falls back, page stays out).
  return cost;
}

}  // namespace tmprof::tiering
