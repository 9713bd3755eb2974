#include "core/numa_maps.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace tmprof::core {

namespace {

struct Vma {
  mem::VirtAddr start = 0;
  mem::VirtAddr end = 0;  // exclusive
  mem::PageSize size = mem::PageSize::k4K;
  std::uint64_t pages = 0;
  std::uint64_t tier0_pages = 0;
  std::uint64_t tier1_pages = 0;
  std::uint64_t abit = 0;
  std::uint64_t trace = 0;
};

void emit(std::ostringstream& os, const Vma& vma) {
  os << std::hex << "0x" << vma.start << std::dec << " size="
     << (vma.end - vma.start) / 1024 << "K pages=" << vma.pages
     << " tier0=" << vma.tier0_pages << " tier1=" << vma.tier1_pages
     << " abit=" << vma.abit << " trace=" << vma.trace
     << (vma.size == mem::PageSize::k2M ? " huge" : "") << '\n';
}

std::uint64_t count_of(const PageCountMap& counts, const PageKey& key) {
  const auto it = counts.find(key);
  return it == counts.end() ? 0 : it->second;
}

}  // namespace

std::string numa_maps(sim::System& system, mem::Pid pid,
                      const EpochObservation& observed) {
  sim::Process& proc = system.process(pid);
  std::ostringstream os;
  Vma current;
  bool open = false;
  proc.page_table().walk([&](mem::VirtAddr page_va, mem::PageSize size,
                             mem::Pte& pte) {
    const std::uint64_t bytes = mem::page_bytes(size);
    if (!open || page_va != current.end || size != current.size) {
      if (open) emit(os, current);
      current = Vma{};
      current.start = page_va;
      current.size = size;
      open = true;
    }
    current.end = page_va + bytes;
    ++current.pages;
    const mem::Pfn pfn = pte.pfn();
    if (system.phys().tier_of(pfn) == 0) ++current.tier0_pages;
    else ++current.tier1_pages;
    const PageKey key{pid, page_va};
    current.abit += count_of(observed.abit, key);
    current.trace += count_of(observed.trace, key);
  });
  if (open) emit(os, current);
  return os.str();
}

}  // namespace tmprof::core
