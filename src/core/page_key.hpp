#pragma once
/// \file page_key.hpp
/// Stable page identity: (pid, page base VA). Physical frame numbers change
/// under migration, so rankings and policies key pages by their virtual
/// identity — host virtual addresses do not change when the page mover
/// relocates a page (Section IV, Step 3).

#include <cstdint>
#include <functional>

#include "mem/addr.hpp"
#include "util/ckpt.hpp"

namespace tmprof::core {

struct PageKey {
  mem::Pid pid = 0;
  mem::VirtAddr page_va = 0;

  friend bool operator==(const PageKey&, const PageKey&) = default;
  friend auto operator<=>(const PageKey&, const PageKey&) = default;
};

/// Checkpoint serialization of a page identity: pid then page VA, each a
/// u64.
struct PageKeyCodec {
  static void save(util::ckpt::Writer& w, const PageKey& key) {
    w.put_u64(key.pid);
    w.put_u64(key.page_va);
  }
  [[nodiscard]] static PageKey load(util::ckpt::Reader& r) {
    PageKey key;
    key.pid = static_cast<mem::Pid>(r.get_u64());
    key.page_va = r.get_u64();
    return key;
  }
};

struct PageKeyHash {
  std::size_t operator()(const PageKey& k) const noexcept {
    std::uint64_t h = k.page_va ^ (static_cast<std::uint64_t>(k.pid) << 48);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

}  // namespace tmprof::core
