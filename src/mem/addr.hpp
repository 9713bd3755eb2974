#pragma once
/// \file addr.hpp
/// Address-space constants and strong-ish aliases shared by the whole
/// simulator. We model a 48-bit x86-64-style virtual address space with
/// 4 KiB base pages and 2 MiB huge pages (Linux THP backs large anonymous
/// HPC heaps with 2 MiB pages, which is essential to reproducing the paper's
/// Table IV page counts).

#include <cstdint>

namespace tmprof::mem {

using VirtAddr = std::uint64_t;
using PhysAddr = std::uint64_t;
/// Virtual page number: vaddr >> kPageShift (always 4 KiB granularity).
using Vpn = std::uint64_t;
/// Physical frame number: paddr >> kPageShift (always 4 KiB granularity).
using Pfn = std::uint64_t;
using Pid = std::uint32_t;

inline constexpr unsigned kPageShift = 12;
inline constexpr std::uint64_t kPageSize = 1ULL << kPageShift;
inline constexpr unsigned kHugePageShift = 21;
inline constexpr std::uint64_t kHugePageSize = 1ULL << kHugePageShift;
/// 4 KiB pages per 2 MiB huge page.
inline constexpr std::uint64_t kPagesPerHuge = kHugePageSize / kPageSize;

inline constexpr unsigned kLineShift = 6;
inline constexpr std::uint64_t kLineSize = 1ULL << kLineShift;

inline constexpr unsigned kVirtAddrBits = 48;

enum class PageSize : std::uint8_t { k4K, k2M };

constexpr std::uint64_t page_bytes(PageSize size) noexcept {
  return size == PageSize::k4K ? kPageSize : kHugePageSize;
}

constexpr std::uint64_t pages_in(PageSize size) noexcept {
  return size == PageSize::k4K ? 1 : kPagesPerHuge;
}

constexpr Pfn pfn_of(PhysAddr paddr) noexcept { return paddr >> kPageShift; }

constexpr VirtAddr page_base(VirtAddr vaddr, PageSize size) noexcept {
  return vaddr & ~(page_bytes(size) - 1);
}

constexpr std::uint64_t page_offset(VirtAddr vaddr, PageSize size) noexcept {
  return vaddr & (page_bytes(size) - 1);
}

constexpr std::uint64_t line_of(PhysAddr paddr) noexcept {
  return paddr >> kLineShift;
}

}  // namespace tmprof::mem
