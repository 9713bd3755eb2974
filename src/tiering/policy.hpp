#pragma once
/// \file policy.hpp
/// Tiered-memory placement policies (Table II). A policy decides, at each
/// epoch horizon, which pages should occupy tier 1. Policies are epoch-
/// based for the two reasons the paper gives: batching amortizes TLB
/// shootdowns, and hotness must be accumulated over time to justify the
/// migration cost.

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/page_key.hpp"
#include "core/ranking.hpp"
#include "mem/addr.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::tiering {

using core::PageKey;
using core::PageKeyHash;

/// Set of pages resident in tier 1.
using PlacementSet = std::unordered_set<PageKey, PageKeyHash>;

/// Page-size lookup (frames each page occupies) for capacity accounting.
using PageSizeMap = std::unordered_map<PageKey, mem::PageSize, PageKeyHash>;

/// Everything a policy may consult when choosing the next placement.
struct PolicyContext {
  /// Tier-1 capacity in 4 KiB frames.
  std::uint64_t capacity_frames = 0;
  /// Pages currently resident in tier 1. Contract: a policy may only ask
  /// about keys of `observed_ranking`, and must choose the same set
  /// whether this holds every tier-1 resident or only the ranked ones —
  /// except that with an empty `observed_ranking` it must hold the full
  /// resident set, which History returns unchanged. The
  /// runner relies on this to skip enumerating residents every epoch.
  const PlacementSet* current = nullptr;
  /// Profiler ranking of the epoch that just ended (History's input);
  /// descending hotness. May be empty at epoch 0.
  const std::vector<core::PageRank>* observed_ranking = nullptr;
  /// Ground-truth access counts of the *coming* epoch (Oracle only).
  const core::TruthMap* next_truth = nullptr;
  /// Pages seen so far in first-touch order (FirstTouch's input).
  const std::vector<PageKey>* first_touch_order = nullptr;
  /// Frames each known page occupies.
  const PageSizeMap* page_sizes = nullptr;
};

class Policy {
 public:
  Policy(const Policy&) = delete;
  Policy& operator=(const Policy&) = delete;
  virtual ~Policy() = default;

  /// Choose the tier-1 resident set for the next epoch.
  [[nodiscard]] virtual PlacementSet choose(const PolicyContext& ctx) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Checkpoint hooks. Stateless policies (History, Oracle)
  /// keep the no-op defaults; stateful ones override both.
  virtual void save_state(util::ckpt::Writer& w) const { (void)w; }
  virtual void load_state(util::ckpt::Reader& r) { (void)r; }

 protected:
  Policy() = default;

  /// Greedily take pages from an ordered range until capacity is exhausted.
  template <typename Range>
  static PlacementSet take_until_full(const Range& ordered_keys,
                                      const PolicyContext& ctx) {
    PlacementSet chosen;
    std::uint64_t used = 0;
    for (const PageKey& key : ordered_keys) {
      const std::uint64_t frames = frames_of(ctx, key);
      if (used + frames > ctx.capacity_frames) continue;  // try smaller pages
      if (!chosen.insert(key).second) continue;
      used += frames;
      if (used >= ctx.capacity_frames) break;
    }
    return chosen;
  }

  static std::uint64_t frames_of(const PolicyContext& ctx, const PageKey& key) {
    if (ctx.page_sizes != nullptr) {
      const auto it = ctx.page_sizes->find(key);
      if (it != ctx.page_sizes->end()) return mem::pages_in(it->second);
    }
    return 1;
  }
};

}  // namespace tmprof::tiering
