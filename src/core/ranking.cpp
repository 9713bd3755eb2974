#include "core/ranking.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::core {
namespace {

/// Merge the per-source counters for `mode` into unsorted fused entries in
/// `out`. Entries are appended as keys first appear; `scratch.index` maps a
/// page to its position in `out` so the second source and the devmon
/// ride-along patch in place. The final fuse pass is then a sequential
/// sweep of `out` rather than a strided walk of a wide hash table. Output
/// order here is slot order, but build_ranking_into sorts under the total
/// RankOrder, which erases it.
void merge_observation(const EpochObservation& obs, const FusionParams& params,
                       RankingScratch& scratch, std::vector<PageRank>& out) {
  const FusionMode mode = params.mode;
  PageMap<std::uint32_t>& index = scratch.index;
  index.clear();
  // Size for the largest source, not the sum: the sources overlap heavily
  // (same hot pages), and summing would double the table — and the probe
  // miss rate — for nothing. If an epoch's overlap is low the table grows
  // once and keeps that capacity for every later epoch.
  index.reserve(
      std::max({obs.abit.size(), obs.trace.size(), obs.devmon.size()}));
  out.clear();
  out.reserve(obs.abit.size() + obs.trace.size() + obs.devmon.size());
  if (mode != FusionMode::TraceOnly && mode != FusionMode::DevOnly) {
    for (const auto& [key, count] : obs.abit) {
      // Keys are unique within one source: always a fresh entry.
      index.try_emplace(key, static_cast<std::uint32_t>(out.size()));
      PageRank pr;
      pr.key = key;
      pr.abit = count;
      out.push_back(pr);
    }
  }
  if (mode != FusionMode::AbitOnly && mode != FusionMode::DevOnly) {
    for (const auto& [key, count] : obs.trace) {
      const auto [pos, inserted] =
          index.try_emplace(key, static_cast<std::uint32_t>(out.size()));
      if (inserted) {
        PageRank pr;
        pr.key = key;
        pr.trace = count;
        out.push_back(pr);
      } else {
        out[*pos].trace = count;
      }
    }
  }
  // Device-counter evidence: in the devmon fusion modes a frame the device
  // saw but sampling missed still earns an entry (that coverage is DevMon's
  // whole point); in every other mode it only annotates existing entries.
  const bool devmon_ranks =
      mode == FusionMode::SumDev || mode == FusionMode::DevOnly;
  for (const auto& [key, count] : obs.devmon) {
    if (devmon_ranks) {
      const auto [pos, inserted] =
          index.try_emplace(key, static_cast<std::uint32_t>(out.size()));
      if (inserted) {
        PageRank pr;
        pr.key = key;
        pr.devmon = count;
        out.push_back(pr);
      } else {
        out[*pos].devmon = count;
      }
    } else {
      const auto it = index.find(key);
      if (it != index.end()) out[it->second].devmon = count;
    }
  }
  for (PageRank& pr : out) {
    switch (mode) {
      case FusionMode::Sum:
      case FusionMode::AbitOnly:
      case FusionMode::TraceOnly:
        pr.rank = static_cast<std::uint64_t>(pr.abit) + pr.trace;
        break;
      case FusionMode::Max:
        pr.rank = std::max<std::uint64_t>(pr.abit, pr.trace);
        break;
      case FusionMode::Weighted:
        TMPROF_EXPECTS(params.trace_weight >= 0.0);
        pr.rank = pr.abit + static_cast<std::uint64_t>(
                                static_cast<double>(pr.trace) *
                                params.trace_weight);
        break;
      case FusionMode::SumDev:
        TMPROF_EXPECTS(params.devmon_weight >= 0.0);
        pr.rank = static_cast<std::uint64_t>(pr.abit) + pr.trace +
                  static_cast<std::uint64_t>(static_cast<double>(pr.devmon) *
                                             params.devmon_weight);
        break;
      case FusionMode::DevOnly:
        pr.rank = pr.devmon;
        break;
    }
  }
}

}  // namespace

void build_ranking_into(const EpochObservation& obs,
                        const FusionParams& params, RankingScratch& scratch,
                        std::vector<PageRank>& out) {
  merge_observation(obs, params, scratch, out);
  // Descending rank; ties broken by key for determinism.
  std::sort(out.begin(), out.end(), RankOrder{});
}

void build_ranking_into(const EpochObservation& obs, FusionMode mode,
                        double trace_weight, RankingScratch& scratch,
                        std::vector<PageRank>& out) {
  build_ranking_into(obs, FusionParams{mode, trace_weight, 1.0}, scratch, out);
}

std::vector<PageRank> build_ranking(const EpochObservation& obs,
                                    FusionMode mode, double trace_weight) {
  RankingScratch scratch;
  std::vector<PageRank> ranked;
  build_ranking_into(obs, mode, trace_weight, scratch, ranked);
  return ranked;
}

void save_page_counts(util::ckpt::Writer& w, const PageCountMap& counts) {
  w.put_u64(counts.size());
  // Single ascending-key pass; no per-key re-hash.
  counts.fold_sorted([&w](const PageKey& key, std::uint32_t count) {
    PageKeyCodec::save(w, key);
    w.put_u32(count);
  });
}

void load_page_counts(util::ckpt::Reader& r, PageCountMap& counts) {
  counts.clear();
  const std::uint64_t n = r.get_u64();
  counts.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const PageKey key = PageKeyCodec::load(r);
    counts[key] = r.get_u32();
  }
}

void save_observation(util::ckpt::Writer& w, const EpochObservation& obs) {
  w.put_u32(obs.epoch);
  save_page_counts(w, obs.abit);
  save_page_counts(w, obs.trace);
  save_page_counts(w, obs.devmon);
}

void load_observation(util::ckpt::Reader& r, EpochObservation& obs) {
  obs.epoch = r.get_u32();
  load_page_counts(r, obs.abit);
  load_page_counts(r, obs.trace);
  load_page_counts(r, obs.devmon);
}

void save_ranking(util::ckpt::Writer& w, const std::vector<PageRank>& ranking) {
  w.put_u64(ranking.size());
  for (const PageRank& pr : ranking) {
    PageKeyCodec::save(w, pr.key);
    w.put_u64(pr.rank);
    w.put_u32(pr.abit);
    w.put_u32(pr.trace);
    w.put_u32(pr.devmon);
  }
}

void load_ranking(util::ckpt::Reader& r, std::vector<PageRank>& ranking) {
  ranking.clear();
  const std::uint64_t n = r.get_u64();
  ranking.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    PageRank pr;
    pr.key = PageKeyCodec::load(r);
    pr.rank = r.get_u64();
    pr.abit = r.get_u32();
    pr.trace = r.get_u32();
    pr.devmon = r.get_u32();
    ranking.push_back(pr);
  }
}

}  // namespace tmprof::core
