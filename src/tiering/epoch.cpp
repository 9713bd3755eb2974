#include "tiering/epoch.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace tmprof::tiering {

namespace {

using core::PageKeyCodec;

void save_keys(util::ckpt::Writer& w, const std::vector<PageKey>& keys) {
  w.put_u64(keys.size());
  for (const PageKey& key : keys) PageKeyCodec::save(w, key);
}

void load_keys(util::ckpt::Reader& r, std::vector<PageKey>& keys) {
  keys.resize(r.get_u64());
  for (PageKey& key : keys) key = PageKeyCodec::load(r);
}

void save_truth_map(util::ckpt::Writer& w, const core::TruthMap& map) {
  w.put_u64(map.size());
  map.fold_sorted([&w](const PageKey& key, std::uint64_t count) {
    PageKeyCodec::save(w, key);
    w.put_u64(count);
  });
}

void load_truth_map(util::ckpt::Reader& r, core::TruthMap& map) {
  map.clear();
  const std::uint64_t count = r.get_u64();
  map.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const PageKey key = PageKeyCodec::load(r);
    map[key] = r.get_u64();
  }
}

void save_size_map(util::ckpt::Writer& w, const PageSizeMap& map) {
  std::vector<PageKey> keys;
  keys.reserve(map.size());
  for (const auto& [key, size] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  w.put_u64(keys.size());
  for (const PageKey& key : keys) {
    PageKeyCodec::save(w, key);
    w.put_u8(static_cast<std::uint8_t>(map.at(key)));
  }
}

void load_size_map(util::ckpt::Reader& r, PageSizeMap& map) {
  map.clear();
  const std::uint64_t count = r.get_u64();
  map.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const PageKey key = PageKeyCodec::load(r);
    map.emplace(key, static_cast<mem::PageSize>(r.get_u8()));
  }
}

/// The DegradeStats fields a series stores, in order.
constexpr std::uint64_t core::DegradeStats::*kSeriesDegradeFields[] = {
    &core::DegradeStats::hwpc_wraps,      &core::DegradeStats::scans_aborted,
    &core::DegradeStats::trace_dropped,   &core::DegradeStats::rescaled_epochs,
    &core::DegradeStats::fallback_epochs, &core::DegradeStats::pinned_epochs};

}  // namespace

TruthCollector::TruthCollector(sim::System& system,
                               const core::HotnessConfig& hotness)
    : system_(system) {
  truth_.configure(hotness);
  seen_.configure(hotness);
  if (system.config().sharded_engine) {
    shards_.resize(system.config().cores);
    for (Shard& shard : shards_) {
      shard.truth.configure(hotness);
      shard.seen.configure(hotness);
    }
  }
}

void TruthCollector::on_mem_op(const monitors::MemOpEvent& event) {
  const mem::VirtAddr page_va = mem::page_base(event.vaddr, event.page_size);
  const PageKey key{event.pid, page_va};
  if (seen_.insert(key)) {
    new_pages_.push_back(key);
    page_sizes_[key] = event.page_size;
  }
  if (mem::is_memory(event.source)) {
    truth_.add(key);
  }
}

void TruthCollector::Shard::on_mem_op(const monitors::MemOpEvent& event) {
  const mem::VirtAddr page_va = mem::page_base(event.vaddr, event.page_size);
  const PageKey key{event.pid, page_va};
  if (seen.insert(key)) {
    new_pages.emplace_back(key, event.page_size);
  }
  if (mem::is_memory(event.source)) {
    truth.add(key);
  }
}

monitors::AccessObserver* TruthCollector::shard_sink(std::uint32_t core) {
  if (shards_.empty()) return nullptr;
  TMPROF_ASSERT(core < shards_.size());
  return &shards_[core];
}

void TruthCollector::merge_shards() {
  // Shards hold disjoint key spaces (a page belongs to one pid, a pid to
  // one core); folding them in ascending core order makes the merged maps'
  // contents — and their insertion-driven iteration order — a pure function
  // of the simulation, not of thread timing.
  for (Shard& shard : shards_) {
    for (const auto& [key, size] : shard.new_pages) {
      new_pages_.push_back(key);
      page_sizes_[key] = size;
    }
    shard.new_pages.clear();
    // Exact mode folds counts in the shard's slot order (the historical
    // merge); sketch mode adds shard sketch cells saturating and re-admits
    // the shard's candidates. Either way the fold clears the shard.
    truth_.merge_from(shard.truth);
  }
}

void TruthCollector::save_state(util::ckpt::Writer& w) const {
  truth_.save_state(w, "truth");
  seen_.save_state(w, "truth");
  save_keys(w, new_pages_);
  save_size_map(w, page_sizes_);
  w.put_u64(shards_.size());
  for (const Shard& shard : shards_) {
    shard.truth.save_state(w, "truth");
    shard.seen.save_state(w, "truth");
    w.put_u64(shard.new_pages.size());
    for (const auto& [key, size] : shard.new_pages) {
      PageKeyCodec::save(w, key);
      w.put_u8(static_cast<std::uint8_t>(size));
    }
  }
}

void TruthCollector::load_state(util::ckpt::Reader& r) {
  truth_.load_state(r, "truth");
  seen_.load_state(r, "truth");
  load_keys(r, new_pages_);
  load_size_map(r, page_sizes_);
  const std::uint64_t n_shards = r.get_u64();
  if (n_shards != shards_.size()) {
    throw util::ckpt::CkptError("truth", "shard count mismatch");
  }
  for (Shard& shard : shards_) {
    shard.truth.load_state(r, "truth");
    shard.seen.load_state(r, "truth");
    shard.new_pages.clear();
    const std::uint64_t n_shard_new = r.get_u64();
    shard.new_pages.reserve(n_shard_new);
    for (std::uint64_t i = 0; i < n_shard_new; ++i) {
      const PageKey key = PageKeyCodec::load(r);
      shard.new_pages.emplace_back(key, static_cast<mem::PageSize>(r.get_u8()));
    }
  }
}

std::uint64_t TruthCollector::end_epoch(core::TruthMap& truth_out,
                                        std::vector<PageKey>& new_pages_out) {
  // Exact mode swaps rather than moves: the caller's previous buffers
  // become next epoch's accumulators, keeping their slot arrays. Sketch
  // mode materializes the candidates' estimates through reused scratch.
  const std::uint64_t total = truth_.end_epoch_into(truth_out);
  std::swap(new_pages_out, new_pages_);
  new_pages_.clear();
  return total;
}

void add_spec_processes(sim::System& system,
                        const workloads::WorkloadSpec& spec,
                        std::uint64_t seed) {
  for (std::uint32_t i = 0; i < spec.processes; ++i) {
    system.add_process(workloads::make_workload(spec, i, seed));
  }
}

WorkloadFactory spec_factory(const workloads::WorkloadSpec& spec) {
  return [spec](std::uint64_t seed) {
    std::vector<workloads::WorkloadPtr> generators;
    generators.reserve(spec.processes);
    for (std::uint32_t i = 0; i < spec.processes; ++i) {
      generators.push_back(workloads::make_workload(spec, i, seed));
    }
    return generators;
  };
}

EpochSeries collect_series(const workloads::WorkloadSpec& spec,
                           const sim::SimConfig& sim_config,
                           const CollectOptions& options) {
  return collect_series(spec_factory(spec), sim_config, options);
}

void save_epoch_data(util::ckpt::Writer& w, const EpochData& data) {
  w.put_u32(data.epoch);
  save_truth_map(w, data.truth);
  w.put_u64(data.truth_total);
  core::save_observation(w, data.observed);
  save_keys(w, data.new_pages);
}

void load_epoch_data(util::ckpt::Reader& r, EpochData& data) {
  data.epoch = r.get_u32();
  load_truth_map(r, data.truth);
  data.truth_total = r.get_u64();
  core::load_observation(r, data.observed);
  load_keys(r, data.new_pages);
}

void save_series(util::ckpt::Writer& w, const EpochSeries& series) {
  w.put_u64(series.epochs.size());
  for (const EpochData& data : series.epochs) save_epoch_data(w, data);
  save_size_map(w, series.page_sizes);
  w.put_u64(series.footprint_frames);
  for (const auto field : kSeriesDegradeFields) {
    w.put_u64(series.degrade.*field);
  }
}

void load_series(util::ckpt::Reader& r, EpochSeries& series) {
  series.epochs.clear();
  const std::uint64_t n_epochs = r.get_u64();
  series.epochs.reserve(n_epochs);
  for (std::uint64_t i = 0; i < n_epochs; ++i) {
    EpochData data;
    load_epoch_data(r, data);
    series.epochs.push_back(std::move(data));
  }
  load_size_map(r, series.page_sizes);
  series.footprint_frames = r.get_u64();
  for (const auto field : kSeriesDegradeFields) {
    series.degrade.*field = r.get_u64();
  }
}

namespace {

EpochSeries collect_attempt(const WorkloadFactory& factory,
                            const sim::SimConfig& sim_config,
                            const CollectOptions& options,
                            const std::vector<double>& process_weights,
                            const std::string& resume_path) {
  TMPROF_EXPECTS(options.n_epochs >= 1);
  EpochLoop loop(factory, sim_config, options, process_weights, "collect");
  sim::System& system = loop.system();
  TruthCollector truth(system, options.daemon.driver.hotness);
  system.add_observer(&truth);
  core::TmpDaemon daemon(system, options.daemon);
  if (options.telemetry != nullptr) daemon.set_telemetry(options.telemetry);

  EpochSeries series;
  series.epochs.reserve(options.n_epochs);
  loop.add(util::ckpt::participant_of("daemon", daemon));
  loop.add(util::ckpt::participant_of("truth", truth));
  loop.add({"series", {},
            [&series](util::ckpt::Writer& w) { save_series(w, series); },
            [&series, &loop](util::ckpt::Reader& r) {
              load_series(r, series);
              if (series.epochs.size() != loop.start_epoch()) {
                throw util::ckpt::CkptError("series",
                                            "epoch record count mismatch");
              }
            }});

  // Reused across epochs: each EpochData keeps its own maps (the series
  // retains them), but the snapshot's ranking vector and whatever buffers
  // the daemon hands back are recycled.
  core::ProfileSnapshot snapshot;
  const bool sharded = loop.config().sharded_engine;
  loop.run(
      resume_path,
      [&options, sharded](util::ckpt::Writer& w) {
        w.put_str("collect");
        w.put_u64(options.seed);
        w.put_u32(options.n_epochs);
        w.put_u64(options.ops_per_epoch);
        w.put_bool(sharded);
      },
      [&](std::uint32_t e) {
        daemon.tick_into(snapshot);
        EpochData data;
        data.epoch = e;
        // The returned total is exact in both hotness modes (sketch-mode
        // maps hold one-sided estimates; the hitrate denominator must not).
        data.truth_total = truth.end_epoch(data.truth, data.new_pages);
        data.observed = std::move(snapshot.observation);
        series.epochs.push_back(std::move(data));
      });
  series.page_sizes = truth.page_sizes();
  series.footprint_frames = 0;
  for (const auto& [key, size] : series.page_sizes) {
    series.footprint_frames += mem::pages_in(size);
  }
  series.degrade = daemon.degrade_stats();
  return series;
}

}  // namespace

EpochSeries collect_series(const WorkloadFactory& factory,
                           const sim::SimConfig& sim_config,
                           const CollectOptions& options,
                           const std::vector<double>& process_weights) {
  EpochSeries series;
  run_resumable(options, "collect", [&](const std::string& resume_path) {
    series = collect_attempt(factory, sim_config, options, process_weights,
                             resume_path);
  });
  return series;
}

EpochSeries collect_series(const WorkloadFactory& factory,
                           const sim::SimConfig& sim_config,
                           const CollectOptions& options) {
  return collect_series(factory, sim_config, options, {});
}

}  // namespace tmprof::tiering
