#include "tiering/policies.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::tiering {

PlacementSet FirstTouchPolicy::choose(const PolicyContext& ctx) {
  TMPROF_EXPECTS(ctx.first_touch_order != nullptr);
  // Admit new pages in arrival order while room remains; never evict.
  for (const PageKey& key : *ctx.first_touch_order) {
    if (placement_.count(key) != 0) continue;
    const std::uint64_t frames = frames_of(ctx, key);
    if (used_frames_ + frames > ctx.capacity_frames) continue;
    placement_.insert(key);
    used_frames_ += frames;
  }
  return placement_;
}

PlacementSet HistoryPolicy::choose(const PolicyContext& ctx) {
  TMPROF_EXPECTS(ctx.observed_ranking != nullptr);
  if (ctx.observed_ranking->empty() && ctx.current != nullptr) {
    return *ctx.current;  // no information yet: leave placement alone
  }
  // Among equally-ranked pages, prefer ones already resident in tier 1:
  // sparse profiles produce many rank ties, and migrating between
  // equally-hot pages is pure cost. Rank and residency are looked up once
  // per candidate, not per comparison.
  struct Candidate {
    std::uint64_t rank;  ///< effective rank (per frame in density mode)
    bool resident;
    PageKey key;
  };
  std::vector<Candidate> order;
  order.reserve(ctx.observed_ranking->size());
  for (const core::PageRank& pr : *ctx.observed_ranking) {
    order.push_back(Candidate{
        density_rank_ ? pr.rank / frames_of(ctx, pr.key) : pr.rank,
        ctx.current != nullptr && ctx.current->count(pr.key) != 0, pr.key});
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.rank != b.rank) return a.rank > b.rank;
                     return a.resident > b.resident;
                   });
  std::vector<PageKey> ordered;
  ordered.reserve(order.size());
  for (const Candidate& c : order) ordered.push_back(c.key);
  return take_until_full(ordered, ctx);
}

PlacementSet OraclePolicy::choose(const PolicyContext& ctx) {
  TMPROF_EXPECTS(ctx.next_truth != nullptr);
  std::vector<std::pair<PageKey, std::uint64_t>> pages(
      ctx.next_truth->begin(), ctx.next_truth->end());
  std::sort(pages.begin(), pages.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<PageKey> ordered;
  ordered.reserve(pages.size());
  for (const auto& [key, count] : pages) ordered.push_back(key);
  return take_until_full(ordered, ctx);
}

FrequencyDecayPolicy::FrequencyDecayPolicy(double decay) : decay_(decay) {
  TMPROF_EXPECTS(decay > 0.0 && decay < 1.0);
}

PlacementSet FrequencyDecayPolicy::choose(const PolicyContext& ctx) {
  TMPROF_EXPECTS(ctx.observed_ranking != nullptr);
  // Age all scores, then fold in this epoch's observations.
  for (auto& [key, score] : score_) score *= decay_;
  for (const core::PageRank& pr : *ctx.observed_ranking) {
    score_[pr.key] += static_cast<double>(pr.rank);
  }
  std::vector<std::pair<PageKey, double>> pages(score_.begin(), score_.end());
  std::sort(pages.begin(), pages.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<PageKey> ordered;
  ordered.reserve(pages.size());
  for (const auto& [key, score] : pages) ordered.push_back(key);
  return take_until_full(ordered, ctx);
}

namespace {

struct PolicyEntry {
  std::string_view name;
  std::unique_ptr<Policy> (*make)();
};

constexpr std::array kPolicies{
    PolicyEntry{"first-touch",
                []() -> std::unique_ptr<Policy> {
                  return std::make_unique<FirstTouchPolicy>();
                }},
    PolicyEntry{"history",
                []() -> std::unique_ptr<Policy> {
                  return std::make_unique<HistoryPolicy>();
                }},
    PolicyEntry{"history-density",
                []() -> std::unique_ptr<Policy> {
                  return std::make_unique<HistoryPolicy>(/*density_rank=*/true);
                }},
    PolicyEntry{"oracle",
                []() -> std::unique_ptr<Policy> {
                  return std::make_unique<OraclePolicy>();
                }},
    PolicyEntry{"freq-decay",
                []() -> std::unique_ptr<Policy> {
                  return std::make_unique<FrequencyDecayPolicy>(0.5);
                }},
};

constexpr auto kPolicyNames = [] {
  std::array<std::string_view, kPolicies.size()> names{};
  for (std::size_t i = 0; i < kPolicies.size(); ++i) {
    names[i] = kPolicies[i].name;
  }
  return names;
}();

}  // namespace

std::span<const std::string_view> policy_names() noexcept {
  return kPolicyNames;
}

std::unique_ptr<Policy> make_policy(const std::string& name) {
  for (const PolicyEntry& entry : kPolicies) {
    if (entry.name == name) return entry.make();
  }
  std::string valid;
  for (const std::string_view known : kPolicyNames) {
    valid += valid.empty() ? "\"" : ", \"";
    valid += known;
    valid += '"';
  }
  throw std::invalid_argument("unknown policy '" + name +
                              "' (valid policies: " + valid + ")");
}

void FirstTouchPolicy::save_state(util::ckpt::Writer& w) const {
  std::vector<PageKey> keys(placement_.begin(), placement_.end());
  std::sort(keys.begin(), keys.end());
  w.put_u64(keys.size());
  for (const PageKey& key : keys) core::PageKeyCodec::save(w, key);
  w.put_u64(used_frames_);
}

void FirstTouchPolicy::load_state(util::ckpt::Reader& r) {
  placement_.clear();
  const std::uint64_t count = r.get_u64();
  placement_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    placement_.insert(core::PageKeyCodec::load(r));
  }
  used_frames_ = r.get_u64();
}

void FrequencyDecayPolicy::save_state(util::ckpt::Writer& w) const {
  w.put_u64(score_.size());
  score_.fold_sorted([&w](const PageKey& key, double score) {
    core::PageKeyCodec::save(w, key);
    w.put_f64(score);
  });
}

void FrequencyDecayPolicy::load_state(util::ckpt::Reader& r) {
  score_.clear();
  const std::uint64_t count = r.get_u64();
  score_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const PageKey key = core::PageKeyCodec::load(r);
    score_[key] = r.get_f64();
  }
}

}  // namespace tmprof::tiering
