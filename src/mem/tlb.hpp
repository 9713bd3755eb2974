#pragma once
/// \file tlb.hpp
/// Per-core two-level TLB with split 4 KiB / 2 MiB arrays, modeled after the
/// Zen 2 part the paper measures on. The TLB is the source of the paper's
/// A-bit *staleness window*: after the scanner clears an A bit without a
/// shootdown, a still-resident entry keeps translating and the PTW (the only
/// agent that sets A) is never invoked until the entry is evicted.
///
/// Entries cache a pointer to their leaf PTE. This is safe because every
/// translation *change* (unmap, migration remap) performs a shootdown
/// through invalidate_page()/flush(), exactly as real kernels must.

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/addr.hpp"
#include "mem/pte.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::mem {

/// Where a translation was found.
enum class TlbHit : std::uint8_t { L1, L2, Miss };

/// One set-associative TLB array for a single page size.
class TlbArray {
 public:
  /// \param sets  number of sets (power of two)
  /// \param ways  associativity
  /// \param size  page size this array translates
  TlbArray(std::uint32_t sets, std::uint32_t ways, PageSize size);

  struct Entry {
    Pid pid = 0;
    Vpn vpn = 0;           ///< page-size-aligned virtual page number
    Pte* pte = nullptr;    ///< leaf PTE backing this entry
    bool dirty_cached = false;  ///< D bit as cached at fill time
    bool valid = false;
    std::uint64_t lru = 0;
  };

  /// Find a valid entry; updates LRU on hit.
  Entry* lookup(Pid pid, Vpn vpn);
  /// Insert (possibly evicting LRU); returns the evicted entry if any.
  ///
  /// Victim rule, scanning the set in way order: the first valid entry for
  /// (pid, vpn) is refilled in place; otherwise the first invalid way is
  /// taken; if neither ends the scan, the first way with the strictly
  /// smallest LRU stamp. The scan stops at the first match or invalid way,
  /// so after invalidate_page() leaves a hole a stale duplicate further
  /// along the set can survive; lookup() returns the first match.
  Entry insert(Pid pid, Vpn vpn, Pte* pte, bool dirty);
  /// insert() followed by lookup() of the same translation, in one scan:
  /// the entry lands where insert() puts it, the LRU clock advances twice
  /// and the entry keeps the second stamp. Returns the installed entry.
  Entry* insert_and_lookup(Pid pid, Vpn vpn, Pte* pte, bool dirty);

  void invalidate_page(Pid pid, Vpn vpn);
  void invalidate_pid(Pid pid);
  void flush();

  /// Rebinds an entry's cached PTE pointer on restore: entries are saved as
  /// (pid, vpn) and must be re-resolved against the rebuilt page tables.
  using PteResolver = std::function<Pte*(Pid, Vpn, PageSize)>;

  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r, const PteResolver& resolve);

  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return sets_ * ways_;
  }
  [[nodiscard]] std::uint64_t valid_entries() const noexcept;

 private:
  [[nodiscard]] std::size_t set_of(Pid pid, Vpn vpn) const noexcept;
  /// insert()'s scan and write, less the LRU stamp.
  Entry& install(Pid pid, Vpn vpn, Pte* pte, bool dirty, Entry* evicted);

  std::uint32_t sets_;
  std::uint32_t ways_;
  PageSize size_;
  std::uint64_t tick_ = 0;
  std::vector<Entry> entries_;
};

/// Geometry of one TLB level.
struct TlbLevelConfig {
  std::uint32_t sets_4k;
  std::uint32_t ways_4k;
  std::uint32_t sets_2m;
  std::uint32_t ways_2m;
};

/// Two-level TLB (L1 dTLB + L2 STLB) for one core.
class Tlb {
 public:
  Tlb(const TlbLevelConfig& l1, const TlbLevelConfig& l2);

  /// Zen-2-like default geometry.
  static Tlb make_default();

  struct LookupResult {
    TlbHit level = TlbHit::Miss;
    TlbArray::Entry* entry = nullptr;  ///< valid when level != Miss
    PageSize size = PageSize::k4K;     ///< page size of the hit entry
  };

  /// Look up a translation for `vaddr`. On an L2 hit the entry is promoted
  /// into L1 (the promoted entry is returned).
  LookupResult lookup(Pid pid, VirtAddr vaddr);

  /// Fill both levels after a page walk.
  TlbArray::Entry* fill(Pid pid, VirtAddr page_va, PageSize size, Pte* pte,
                        bool dirty);

  /// Targeted shootdown of one translation.
  void invalidate_page(Pid pid, VirtAddr page_va, PageSize size);
  /// Shootdown of every translation of a process.
  void invalidate_pid(Pid pid);
  void flush();

  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r, const TlbArray::PteResolver& resolve);

  [[nodiscard]] std::uint64_t valid_entries() const noexcept;

 private:
  TlbArray l1_4k_;
  TlbArray l1_2m_;
  TlbArray l2_4k_;
  TlbArray l2_2m_;
};

}  // namespace tmprof::mem
