#include "tiering/policies.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace tmprof::tiering {
namespace {

PageKey key(std::uint64_t n) { return PageKey{1, n * mem::kPageSize}; }

struct Fixture {
  PlacementSet current;
  std::vector<core::PageRank> ranking;
  core::TruthMap truth;
  std::vector<PageKey> first_touch;
  PageSizeMap sizes;

  PolicyContext ctx(std::uint64_t capacity) {
    PolicyContext c;
    c.capacity_frames = capacity;
    c.current = &current;
    c.observed_ranking = &ranking;
    c.next_truth = &truth;
    c.first_touch_order = &first_touch;
    c.page_sizes = &sizes;
    return c;
  }

  void add_rank(std::uint64_t n, std::uint64_t rank) {
    core::PageRank pr;
    pr.key = key(n);
    pr.rank = rank;
    ranking.push_back(pr);
    sizes[key(n)] = mem::PageSize::k4K;
  }
};

TEST(FirstTouch, AdmitsInOrderUntilFull) {
  Fixture f;
  for (std::uint64_t i = 0; i < 5; ++i) {
    f.first_touch.push_back(key(i));
    f.sizes[key(i)] = mem::PageSize::k4K;
  }
  FirstTouchPolicy policy;
  const PlacementSet p = policy.choose(f.ctx(3));
  EXPECT_EQ(p.size(), 3U);
  EXPECT_TRUE(p.count(key(0)));
  EXPECT_TRUE(p.count(key(1)));
  EXPECT_TRUE(p.count(key(2)));
}

TEST(FirstTouch, NeverEvicts) {
  Fixture f;
  f.first_touch = {key(0), key(1)};
  f.sizes[key(0)] = f.sizes[key(1)] = mem::PageSize::k4K;
  FirstTouchPolicy policy;
  PlacementSet p = policy.choose(f.ctx(2));
  EXPECT_EQ(p.size(), 2U);
  // Later, hotter pages appear — first-touch ignores them.
  f.first_touch.push_back(key(9));
  f.sizes[key(9)] = mem::PageSize::k4K;
  p = policy.choose(f.ctx(2));
  EXPECT_EQ(p.size(), 2U);
  EXPECT_FALSE(p.count(key(9)));
}

TEST(History, TakesHottestObservedPages) {
  Fixture f;
  f.add_rank(1, 100);
  f.add_rank(2, 50);
  f.add_rank(3, 10);
  HistoryPolicy policy;
  const PlacementSet p = policy.choose(f.ctx(2));
  EXPECT_EQ(p.size(), 2U);
  EXPECT_TRUE(p.count(key(1)));
  EXPECT_TRUE(p.count(key(2)));
  EXPECT_FALSE(p.count(key(3)));
}

TEST(History, EmptyRankingKeepsCurrentPlacement) {
  Fixture f;
  f.current.insert(key(7));
  HistoryPolicy policy;
  const PlacementSet p = policy.choose(f.ctx(4));
  EXPECT_EQ(p.size(), 1U);
  EXPECT_TRUE(p.count(key(7)));
}

TEST(Oracle, UsesNextEpochTruth) {
  Fixture f;
  f.truth[key(1)] = 5;
  f.truth[key(2)] = 500;
  f.truth[key(3)] = 50;
  for (std::uint64_t i = 1; i <= 3; ++i) f.sizes[key(i)] = mem::PageSize::k4K;
  OraclePolicy policy;
  const PlacementSet p = policy.choose(f.ctx(2));
  EXPECT_TRUE(p.count(key(2)));
  EXPECT_TRUE(p.count(key(3)));
  EXPECT_FALSE(p.count(key(1)));
}

TEST(Policies, HugePagesConsumeMoreCapacity) {
  Fixture f;
  f.add_rank(1, 100);
  f.sizes[key(1)] = mem::PageSize::k2M;  // 512 frames
  f.add_rank(2, 90);
  f.add_rank(3, 80);
  HistoryPolicy policy;
  // Capacity 513: the huge page plus exactly one 4K page fit.
  const PlacementSet p = policy.choose(f.ctx(513));
  EXPECT_EQ(p.size(), 2U);
  EXPECT_TRUE(p.count(key(1)));
  EXPECT_TRUE(p.count(key(2)));
}

TEST(Policies, HugePageSkippedWhenItDoesNotFit) {
  Fixture f;
  f.add_rank(1, 100);
  f.sizes[key(1)] = mem::PageSize::k2M;
  f.add_rank(2, 90);
  HistoryPolicy policy;
  const PlacementSet p = policy.choose(f.ctx(10));
  EXPECT_FALSE(p.count(key(1)));  // 512 frames don't fit in 10
  EXPECT_TRUE(p.count(key(2)));
}

TEST(FrequencyDecay, SmoothsAcrossEpochs) {
  Fixture f;
  f.add_rank(1, 100);
  FrequencyDecayPolicy policy(0.5);
  PlacementSet p = policy.choose(f.ctx(1));
  EXPECT_TRUE(p.count(key(1)));
  // Next epoch page 1 vanishes from the ranking but retains decayed score;
  // a slightly-hot newcomer must beat 100*0.5 to displace it.
  Fixture f2;
  f2.add_rank(2, 10);
  p = policy.choose(f2.ctx(1));
  EXPECT_TRUE(p.count(key(1)));
  EXPECT_FALSE(p.count(key(2)));
  // A genuinely hotter newcomer wins.
  Fixture f3;
  f3.add_rank(3, 1000);
  p = policy.choose(f3.ctx(1));
  EXPECT_TRUE(p.count(key(3)));
}

TEST(Factory, MakesAllPolicies) {
  EXPECT_EQ(make_policy("first-touch")->name(), "first-touch");
  EXPECT_EQ(make_policy("history")->name(), "history");
  EXPECT_EQ(make_policy("oracle")->name(), "oracle");
  EXPECT_EQ(make_policy("freq-decay")->name(), "freq-decay");
  ASSERT_EQ(policy_names().size(), 5U);
  for (const std::string_view name : policy_names()) {
    EXPECT_EQ(make_policy(std::string(name))->name(), name);
  }
  try {
    (void)make_policy("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
    for (const std::string_view name : policy_names()) {
      EXPECT_NE(what.find("\"" + std::string(name) + "\""),
                std::string::npos)
          << what;
    }
  }
}

}  // namespace
}  // namespace tmprof::tiering

namespace tmprof::tiering {
namespace {

PageKey dkey(std::uint64_t n) { return PageKey{1, n * mem::kHugePageSize}; }

TEST(HistoryDensity, PrefersHotSmallPagesOverLukewarmHugePages) {
  // A huge page with aggregate rank 600 (~1.2/frame) vs 4K pages with
  // rank 50 each: density ordering must pick the small pages.
  std::vector<core::PageRank> ranking;
  core::PageRank huge;
  huge.key = dkey(1);
  huge.rank = 600;
  ranking.push_back(huge);
  PageSizeMap sizes;
  sizes[huge.key] = mem::PageSize::k2M;
  for (std::uint64_t i = 0; i < 4; ++i) {
    core::PageRank small;
    small.key = PageKey{2, i * mem::kPageSize};
    small.rank = 50;
    ranking.push_back(small);
    sizes[small.key] = mem::PageSize::k4K;
  }
  PlacementSet current;
  PolicyContext ctx;
  ctx.capacity_frames = 4;  // room for the 4 small pages OR none of huge
  ctx.current = &current;
  ctx.observed_ranking = &ranking;
  ctx.page_sizes = &sizes;

  HistoryPolicy raw(false);
  const PlacementSet raw_choice = raw.choose(ctx);
  EXPECT_TRUE(raw_choice.count(huge.key) == 0)  // can't fit 512 frames
      << "huge page shouldn't fit at all";
  HistoryPolicy density(true);
  const PlacementSet density_choice = density.choose(ctx);
  EXPECT_EQ(density_choice.size(), 4U);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(density_choice.count(PageKey{2, i * mem::kPageSize}));
  }
}

TEST(HistoryDensity, HugePageWinsWhenActuallyDense) {
  // Huge page with rank 51200 (100/frame) vs small pages at 50: the huge
  // page deserves the capacity when it fits.
  std::vector<core::PageRank> ranking;
  core::PageRank huge;
  huge.key = dkey(1);
  huge.rank = 51200;
  ranking.push_back(huge);
  core::PageRank small;
  small.key = PageKey{2, 0};
  small.rank = 50;
  ranking.push_back(small);
  PageSizeMap sizes;
  sizes[huge.key] = mem::PageSize::k2M;
  sizes[small.key] = mem::PageSize::k4K;
  PlacementSet current;
  PolicyContext ctx;
  ctx.capacity_frames = mem::kPagesPerHuge;
  ctx.current = &current;
  ctx.observed_ranking = &ranking;
  ctx.page_sizes = &sizes;
  HistoryPolicy density(true);
  const PlacementSet chosen = density.choose(ctx);
  EXPECT_TRUE(chosen.count(huge.key));
}

TEST(HistoryDensity, FactoryName) {
  EXPECT_EQ(make_policy("history-density")->name(), "history-density");
}

}  // namespace
}  // namespace tmprof::tiering

namespace tmprof::tiering {
namespace {

/// PolicyContext::current contract: a policy asks only about ranked keys,
/// so handing it the full tier-1 resident set or just the ranked residents
/// must choose the same placement.
struct ContractCase {
  std::vector<core::PageRank> ranking;
  PageSizeMap sizes;
  PlacementSet all_residents;
  PlacementSet ranked_residents;
  std::uint64_t capacity = 0;
};

ContractCase random_contract_case(std::uint64_t seed) {
  util::Rng rng(seed);
  ContractCase c;
  auto random_key = [&] {
    return PageKey{static_cast<mem::Pid>(1 + rng.below(2)),
                   rng.below(96) * mem::kPageSize};
  };
  const std::uint64_t n_ranked = 1 + rng.below(40);
  for (std::uint64_t i = 0; i < n_ranked; ++i) {
    core::PageRank pr;
    pr.key = random_key();
    pr.rank = 1 + rng.below(4);  // heavy ties: residency breaks them
    c.ranking.push_back(pr);
    c.sizes[pr.key] =
        rng.below(8) == 0 ? mem::PageSize::k2M : mem::PageSize::k4K;
  }
  std::stable_sort(c.ranking.begin(), c.ranking.end(),
                   [](const core::PageRank& a, const core::PageRank& b) {
                     return a.rank > b.rank;
                   });
  for (int i = 0; i < 64; ++i) c.all_residents.insert(random_key());
  for (const core::PageRank& pr : c.ranking) {
    if (c.all_residents.count(pr.key) != 0) c.ranked_residents.insert(pr.key);
  }
  c.capacity = rng.below(4) == 0 ? 512 + rng.below(64) : 1 + rng.below(30);
  return c;
}

PlacementSet choose_with(const std::string& name, const ContractCase& c,
                         const PlacementSet& current) {
  PolicyContext ctx;
  ctx.capacity_frames = c.capacity;
  ctx.current = &current;
  ctx.observed_ranking = &c.ranking;
  ctx.page_sizes = &c.sizes;
  return make_policy(name)->choose(ctx);
}

TEST(PolicyContract, HistoryNeedsOnlyRankedResidency) {
  for (const std::string name : {"history", "history-density"}) {
    int residency_mattered = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      const ContractCase c = random_contract_case(seed);
      const PlacementSet chosen = choose_with(name, c, c.all_residents);
      EXPECT_EQ(chosen, choose_with(name, c, c.ranked_residents))
          << name << " seed=" << seed;
      if (chosen != choose_with(name, c, PlacementSet{})) ++residency_mattered;
    }
    // Non-vacuous: residency really breaks rank ties in these cases.
    EXPECT_GT(residency_mattered, 0) << name;
  }
}

TEST(PolicyContract, HistoryEmptyRankingKeepsFullResidentSet) {
  for (const std::string name : {"history", "history-density"}) {
    ContractCase c = random_contract_case(7);
    c.ranking.clear();
    EXPECT_EQ(choose_with(name, c, c.all_residents), c.all_residents) << name;
  }
}

/// HistoryPolicy's order as it was computed before residency was looked up
/// once per candidate: a stable sort whose comparator probes `ctx.current`
/// for both pages of every rank tie, then the greedy fill.
PlacementSet reference_history(const PolicyContext& ctx, bool density) {
  if (ctx.observed_ranking->empty() && ctx.current != nullptr) {
    return *ctx.current;
  }
  auto frames = [&ctx](const PageKey& k) -> std::uint64_t {
    const auto it = ctx.page_sizes->find(k);
    return it == ctx.page_sizes->end() ? 1 : mem::pages_in(it->second);
  };
  std::vector<const core::PageRank*> order;
  for (const core::PageRank& pr : *ctx.observed_ranking) order.push_back(&pr);
  auto effective_rank = [&](const core::PageRank* pr) {
    return density ? pr->rank / frames(pr->key) : pr->rank;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](const core::PageRank* a, const core::PageRank* b) {
                     const std::uint64_t ra = effective_rank(a);
                     const std::uint64_t rb = effective_rank(b);
                     if (ra != rb) return ra > rb;
                     if (ctx.current != nullptr) {
                       return ctx.current->count(a->key) >
                              ctx.current->count(b->key);
                     }
                     return false;
                   });
  PlacementSet chosen;
  std::uint64_t used = 0;
  for (const core::PageRank* pr : order) {
    const std::uint64_t f = frames(pr->key);
    if (used + f > ctx.capacity_frames) continue;
    if (!chosen.insert(pr->key).second) continue;
    used += f;
    if (used >= ctx.capacity_frames) break;
  }
  return chosen;
}

TEST(History, TieBreakMatchesPerComparisonResidencyProbe) {
  util::Rng rng(0x71eb7eULL);
  for (int trial = 0; trial < 80; ++trial) {
    Fixture f;
    const std::uint64_t n = 1 + rng.below(120);
    const std::uint64_t distinct_ranks = 1 + rng.below(4);  // heavy ties
    std::uint64_t total_frames = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      // Huge-page ranks scale up so density mode still sees ties.
      const bool huge = rng.below(5) == 0;
      f.add_rank(i, (1 + rng.below(distinct_ranks)) * (huge ? 512 : 1));
      if (huge) f.sizes[key(i)] = mem::PageSize::k2M;
      total_frames += huge ? 512 : 1;
      if (rng.below(2) == 0) f.current.insert(key(i));
    }
    f.current.insert(key(n + 1));  // a resident page that is not ranked
    for (const bool density : {false, true}) {
      HistoryPolicy policy(density);
      for (const bool with_current : {true, false}) {
        // Sweeping the capacity pins the whole order, not just one cut.
        for (int cut = 0; cut < 6; ++cut) {
          PolicyContext ctx = f.ctx(1 + rng.below(total_frames + 1));
          if (!with_current) ctx.current = nullptr;
          EXPECT_EQ(policy.choose(ctx), reference_history(ctx, density))
              << "trial " << trial << " density " << density << " current "
              << with_current << " capacity " << ctx.capacity_frames;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tmprof::tiering
