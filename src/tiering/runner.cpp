#include "tiering/runner.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "pmu/events.hpp"
#include "telemetry/telemetry.hpp"
#include "tiering/epoch.hpp"
#include "util/assert.hpp"
#include "util/ckpt.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace tmprof::tiering {

namespace {

/// Re-establish fault delivery for every tier-2 page: poison new tier-2
/// residents (hot if the profiler ranked them), unpoison promoted pages.
void sync_poison(sim::System& system, monitors::BadgerTrap& trap,
                 const PlacementSet& hot_pages) {
  for (sim::Process* proc : system.processes()) {
    const mem::Pid pid = proc->pid();
    const std::uint32_t core = pid % system.config().cores;
    proc->page_table().walk_fn(
        [&](mem::VirtAddr page_va, mem::PageSize size, mem::Pte& pte) {
          (void)size;
          const bool in_t2 = system.phys().tier_of(pte.pfn()) != 0;
          const bool poisoned = trap.is_poisoned(pid, page_va);
          if (in_t2) {
            const bool hot = hot_pages.count(PageKey{pid, page_va}) != 0;
            trap.poison(pid, proc->page_table(), system.tlb(core), page_va,
                        hot);
          } else if (poisoned) {
            trap.unpoison(pid, proc->page_table(), page_va);
          }
        });
  }
}

}  // namespace

RunnerResult EndToEndRunner::run(const workloads::WorkloadSpec& spec,
                                 const sim::SimConfig& sim_config,
                                 const RunnerOptions& options) {
  return run(spec_factory(spec), sim_config, options);
}

namespace {

void save_move_stats(util::ckpt::Writer& w, const MoveStats& stats) {
  w.put_u64(stats.promoted);
  w.put_u64(stats.demoted);
  w.put_u64(stats.retried);
  w.put_u64(stats.deferred);
  w.put_u64(stats.aborted);
  w.put_u64(stats.no_room);
  w.put_u64(stats.rejected);
  w.put_u64(stats.cooled);
  w.put_u64(stats.shed);
  w.put_u64(stats.moved_bytes);
  w.put_u64(stats.cost_ns);
  w.put_u64(stats.backoff_ns);
}

void load_move_stats(util::ckpt::Reader& r, MoveStats& stats) {
  stats.promoted = r.get_u64();
  stats.demoted = r.get_u64();
  stats.retried = r.get_u64();
  stats.deferred = r.get_u64();
  stats.aborted = r.get_u64();
  stats.no_room = r.get_u64();
  stats.rejected = r.get_u64();
  stats.cooled = r.get_u64();
  stats.shed = r.get_u64();
  stats.moved_bytes = r.get_u64();
  stats.cost_ns = r.get_u64();
  stats.backoff_ns = r.get_u64();
}

RunnerResult run_impl(const WorkloadFactory& factory,
                      const sim::SimConfig& sim_config,
                      const RunnerOptions& options,
                      const std::string& resume_path) {
  if (options.checkpoint.enabled()) {
    // Best-effort mkdir -p; a dir that still can't be written to surfaces
    // as a CkptError("<io>") from the first save_atomic.
    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint.dir, ec);
  }
  sim::SimConfig config = sim_config;
  if (options.slow_model == SlowMemoryModel::BadgerTrapEmulation) {
    // All tiers are physically DRAM; slowness comes from injected faults.
    config.tier2_read_ns = config.tier1_read_ns;
    config.tier2_write_ns = config.tier1_write_ns;
    if (!config.tiers.empty()) {
      const mem::TierSpec fastest = config.tiers.front();
      for (mem::TierSpec& spec : config.tiers) {
        spec.read_latency_ns = fastest.read_latency_ns;
        spec.write_latency_ns = fastest.write_latency_ns;
        spec.line_transfer_ns = fastest.line_transfer_ns;
      }
    }
  }
  if (options.n_threads >= 1) config.sharded_engine = true;
  sim::System system(config);
  {
    std::size_t i = 0;
    for (auto& generator : factory(options.seed)) {
      const double weight = i < options.process_weights.size()
                                ? options.process_weights[i]
                                : 1.0;
      system.add_process(std::move(generator), weight);
      ++i;
    }
  }

  monitors::BadgerTrap trap(options.badgertrap);
  if (options.slow_model == SlowMemoryModel::BadgerTrapEmulation) {
    system.set_badgertrap(&trap);
  }

  core::DaemonConfig daemon_config = options.daemon;
  daemon_config.fusion = options.fusion;
  daemon_config.charge_overhead = true;
  daemon_config.fault = options.fault;
  core::TmpDaemon daemon(system, daemon_config);
  MoverConfig mover_config = options.mover;
  mover_config.fault = options.fault;
  PageMover mover(system, mover_config);

  // Fleet consolidation (docs/CONSOLIDATION.md): tenants[i] owns the i-th
  // process. Registration order is the factory's yield order, so tenant
  // indices — and everything arbitrated from them — are reproducible.
  TenantArbiter arbiter;
  if (!options.tenants.empty()) {
    TMPROF_EXPECTS(options.tenants.size() <= system.processes().size());
    arbiter.set_capacity(config.tier1_frames);
    std::vector<mem::Pid> pinned;
    for (std::size_t i = 0; i < options.tenants.size(); ++i) {
      const mem::Pid pid = system.processes()[i]->pid();
      arbiter.register_tenant(pid, options.tenants[i]);
      if (options.tenants[i].qos == QosClass::Latency) pinned.push_back(pid);
    }
    mover.set_tenant_arbiter(&arbiter);
    daemon.set_qos_lookup(
        [&arbiter](mem::Pid pid) { return arbiter.is_batch(pid); });
    daemon.set_pinned_pids(std::move(pinned));
  }

  // Telemetry attaches before any resume load: handles resolve registry
  // cells in place, and load_state later overwrites those same cells, so
  // resolution order never affects restored values.
  telemetry::Telemetry* const telemetry = options.telemetry;
  telemetry::Counter epochs_counter;
  // Per-tier occupancy / fill gauges, named from the chain's tier names
  // sanitized to the registry charset ("tier1-dram" -> tier_tier1_dram_*).
  // Updated once per epoch from deterministic epoch-barrier state, so the
  // exported values are byte-identical across thread counts and resumes.
  std::vector<telemetry::Gauge> tier_occupied_gauges;
  std::vector<telemetry::Gauge> tier_fill_gauges;
  if (telemetry != nullptr) {
    telemetry->begin_run(options.telemetry_label.empty()
                             ? options.policy
                             : options.telemetry_label);
    system.set_telemetry(telemetry);
    daemon.set_telemetry(telemetry);
    mover.set_telemetry(telemetry);
    arbiter.set_telemetry(telemetry);
    epochs_counter = telemetry->metrics().counter("runner_epochs_total");
    for (const mem::TierSpec& spec : sim::tier_specs(config)) {
      std::string name = spec.name;
      for (char& c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
        if (!ok) c = '_';
      }
      tier_occupied_gauges.push_back(
          telemetry->metrics().gauge("tier_" + name + "_occupied_frames"));
      tier_fill_gauges.push_back(
          telemetry->metrics().gauge("tier_" + name + "_fills"));
    }
  }

  const bool migrate = options.policy != "first-touch";
  const bool oracle = options.policy == "oracle";
  const bool emulation =
      options.slow_model == SlowMemoryModel::BadgerTrapEmulation;
  std::unique_ptr<Policy> policy;
  if (migrate && !oracle) policy = make_policy(options.policy);

  std::vector<std::vector<core::PageRank>> oracle_rankings;
  std::uint32_t start_epoch = 0;
  RunnerResult result;

  if (!resume_path.empty()) {
    util::ckpt::Reader r = util::ckpt::Reader::from_file(resume_path);
    r.enter_section("meta");
    if (r.get_str() != "runner") {
      throw util::ckpt::CkptError("meta", "checkpoint kind is not 'runner'");
    }
    if (r.get_u64() != options.seed) {
      throw util::ckpt::CkptError("meta", "seed mismatch");
    }
    if (r.get_str() != options.policy) {
      throw util::ckpt::CkptError("meta", "policy mismatch");
    }
    if (r.get_u8() != static_cast<std::uint8_t>(options.fusion)) {
      throw util::ckpt::CkptError("meta", "fusion mode mismatch");
    }
    if (r.get_u32() != options.n_epochs) {
      throw util::ckpt::CkptError("meta", "epoch count mismatch");
    }
    if (r.get_u64() != options.ops_per_epoch) {
      throw util::ckpt::CkptError("meta", "ops-per-epoch mismatch");
    }
    if (r.get_u8() != static_cast<std::uint8_t>(options.slow_model)) {
      throw util::ckpt::CkptError("meta", "slow-memory model mismatch");
    }
    if (r.get_bool() != config.sharded_engine) {
      throw util::ckpt::CkptError("meta", "engine mode mismatch");
    }
    start_epoch = r.get_u32();
    if (start_epoch == 0 || start_epoch >= options.n_epochs) {
      throw util::ckpt::CkptError("meta", "resume epoch out of range");
    }
    r.end_section();
    r.enter_section("system");
    system.load_state(r);
    r.end_section();
    r.enter_section("daemon");
    daemon.load_state(r);
    r.end_section();
    r.enter_section("devmon");
    daemon.driver().load_devmon_state(r);
    r.end_section();
    r.enter_section("stream");
    daemon.driver().load_stream_state(r);
    r.end_section();
    r.enter_section("mover");
    mover.load_state(r);
    r.end_section();
    r.enter_section("admission");
    if (r.get_bool() != mover.admission().enabled()) {
      throw util::ckpt::CkptError("admission", "admission presence mismatch");
    }
    if (r.get_u8() !=
        static_cast<std::uint8_t>(mover.admission().config().mode)) {
      throw util::ckpt::CkptError("admission", "admission mode mismatch");
    }
    if (mover.admission().enabled()) mover.admission().load_state(r);
    r.end_section();
    r.enter_section("tenant");
    if (r.get_bool() != arbiter.enabled()) {
      throw util::ckpt::CkptError("tenant",
                                  "tenant arbitration presence mismatch");
    }
    if (arbiter.enabled()) arbiter.load_state(r);
    r.end_section();
    r.enter_section("policy");
    if (r.get_bool() != (policy != nullptr)) {
      throw util::ckpt::CkptError("policy", "policy presence mismatch");
    }
    if (policy) policy->load_state(r);
    r.end_section();
    r.enter_section("trap");
    if (r.get_bool() != emulation) {
      throw util::ckpt::CkptError("trap", "emulation mode mismatch");
    }
    if (emulation) trap.load_state(r);
    r.end_section();
    r.enter_section("oracle");
    if (r.get_bool() != oracle) {
      throw util::ckpt::CkptError("oracle", "oracle mode mismatch");
    }
    if (oracle) {
      const std::uint64_t n_rankings = r.get_u64();
      oracle_rankings.reserve(n_rankings);
      for (std::uint64_t i = 0; i < n_rankings; ++i) {
        std::vector<core::PageRank> ranking;
        core::load_ranking(r, ranking);
        oracle_rankings.push_back(std::move(ranking));
      }
    }
    r.end_section();
    r.enter_section("runner");
    result.migrations = r.get_u64();
    load_move_stats(r, result.moves);
    r.end_section();
    r.enter_section("telemetry");
    if (r.get_bool() != (telemetry != nullptr)) {
      throw util::ckpt::CkptError("telemetry", "telemetry presence mismatch");
    }
    if (telemetry != nullptr) telemetry->load_state(r);
    r.end_section();
  }

  // Oracle pre-pass: record each epoch's true hottest pages on an identical
  // shadow run (workload streams are deterministic, so the shadow sees the
  // same references the main run will). A resumed run restores the rankings
  // from the checkpoint instead of repeating the shadow run.
  if (oracle && resume_path.empty()) {
    CollectOptions collect;
    collect.n_epochs = options.n_epochs;
    collect.ops_per_epoch = options.ops_per_epoch;
    collect.seed = options.seed;
    collect.daemon = options.daemon;
    collect.daemon.fault = options.fault;
    collect.n_threads = options.n_threads;
    const EpochSeries series = collect_series(factory, config, collect);
    for (const EpochData& data : series.epochs) {
      std::vector<core::PageRank> ranking;
      ranking.reserve(data.truth.size());
      for (const auto& [key, count] : data.truth) {
        core::PageRank pr;
        pr.key = key;
        pr.rank = count;
        ranking.push_back(pr);
      }
      std::sort(ranking.begin(), ranking.end(), core::RankOrder{});
      oracle_rankings.push_back(std::move(ranking));
    }
  }

  std::unique_ptr<util::ThreadPool> pool;
  if (options.n_threads > 1) {
    pool = std::make_unique<util::ThreadPool>(options.n_threads);
  }

  // Epoch-loop scratch, hoisted so steady-state iterations recycle the
  // snapshot's observation maps / ranking vector and the policy-side
  // buffers instead of reallocating them every epoch.
  core::ProfileSnapshot snapshot;
  std::vector<core::PageRank> filtered;
  PageSizeMap sizes;
  PlacementSet current;
  PlacementSet hot;

  for (std::uint32_t e = start_epoch; e < options.n_epochs; ++e) {
    const util::SimNs epoch_begin = system.now();
    if (config.sharded_engine) {
      system.step_parallel(options.ops_per_epoch, pool.get());
    } else {
      system.step(options.ops_per_epoch);
    }
    daemon.tick_into(snapshot);
    if (migrate && oracle) {
      // Oracle places for the *coming* epoch using its truth.
      const std::size_t next = e + 1;
      const std::vector<core::PageRank>* ranking =
          next < oracle_rankings.size() ? &oracle_rankings[next]
                                        : &snapshot.ranking;
      const MoveStats moved = mover.apply(*ranking, config.tier1_frames);
      result.migrations += moved.promoted + moved.demoted;
      result.moves.merge(moved);
    } else if (migrate) {
      // Every other policy decides through the Policy interface, seeing
      // the epoch that just ended above the mover's noise floor (rank ties
      // from single A-bit observations are not worth migrations).
      filtered.clear();
      filtered.reserve(snapshot.ranking.size());
      sizes.clear();
      current.clear();
      for (const core::PageRank& pr : snapshot.ranking) {
        if (pr.rank < options.mover.min_rank) break;  // descending
        sim::Process& proc = system.process(pr.key.pid);
        const mem::PteRef ref = proc.page_table().resolve(pr.key.page_va);
        if (!ref) continue;
        filtered.push_back(pr);
        sizes[pr.key] = ref.size;
        // `current` only needs the candidates' residency (the
        // PolicyContext contract). A key inside a larger mapping is not
        // itself a resident page, as in the full resident enumeration.
        if (ref.page_va == pr.key.page_va &&
            system.phys().tier_of(ref.pte->pfn()) == 0) {
          current.insert(pr.key);
        }
      }
      // No candidates: the policy keeps the whole resident set in place.
      if (filtered.empty()) {
        for (const auto& [key, size] : mover.residents(0)) {
          current.insert(key);
        }
      }
      PolicyContext ctx;
      ctx.capacity_frames = config.tier1_frames;
      ctx.current = &current;
      ctx.observed_ranking = &filtered;
      ctx.page_sizes = &sizes;
      const PlacementSet next = policy->choose(ctx);
      const MoveStats moved = mover.apply_placement(next, filtered);
      result.migrations += moved.promoted + moved.demoted;
      result.moves.merge(moved);
    }
    if (options.slow_model == SlowMemoryModel::BadgerTrapEmulation) {
      // The emulation framework refreshes protection each period. Hot =
      // profiler-ranked pages stuck in slow memory.
      hot.clear();
      for (const core::PageRank& pr : snapshot.ranking) hot.insert(pr.key);
      sync_poison(system, trap, hot);
    }
    if (arbiter.enabled()) {
      // Feed per-tenant hitrates back before the checkpoint below, so the
      // arbiter's saved image — and its exported telemetry — includes this
      // epoch on a resume.
      for (std::uint32_t t = 0; t < arbiter.size(); ++t) {
        arbiter.note_hitrate_bp(
            t, static_cast<std::uint64_t>(
                   system.processes()[t]->tier0_hitrate() * 10000.0));
      }
      arbiter.publish_telemetry();
    }
    for (std::size_t t = 0; t < tier_occupied_gauges.size(); ++t) {
      tier_occupied_gauges[t].set(
          system.phys().used_frames(static_cast<mem::TierId>(t)));
      std::uint64_t fills = 0;
      for (const sim::Process* p : system.processes()) {
        fills += p->tier_fills(static_cast<mem::TierId>(t));
      }
      tier_fill_gauges[t].set(fills);
    }
    // Record the epoch's telemetry before any checkpoint below, so the
    // saved span ring and counters include this epoch — a resumed run
    // replays the remaining epochs and exports identical artifacts.
    epochs_counter.inc();
    if (telemetry != nullptr) {
      telemetry->span("runner.epoch", epoch_begin, system.now(),
                      telemetry::kTidRunner);
      telemetry->maybe_export(e + 1);
    }
    if (options.checkpoint.enabled() &&
        (e + 1) % options.checkpoint.every == 0) {
      util::ckpt::Writer w;
      w.begin_section("meta");
      w.put_str("runner");
      w.put_u64(options.seed);
      w.put_str(options.policy);
      w.put_u8(static_cast<std::uint8_t>(options.fusion));
      w.put_u32(options.n_epochs);
      w.put_u64(options.ops_per_epoch);
      w.put_u8(static_cast<std::uint8_t>(options.slow_model));
      w.put_bool(config.sharded_engine);
      w.put_u32(e + 1);
      w.end_section();
      w.begin_section("system");
      system.save_state(w);
      w.end_section();
      w.begin_section("daemon");
      daemon.save_state(w);
      w.end_section();
      w.begin_section("devmon");
      daemon.driver().save_devmon_state(w);
      w.end_section();
      w.begin_section("stream");
      daemon.driver().save_stream_state(w);
      w.end_section();
      w.begin_section("mover");
      mover.save_state(w);
      w.end_section();
      w.begin_section("admission");
      w.put_bool(mover.admission().enabled());
      w.put_u8(static_cast<std::uint8_t>(mover.admission().config().mode));
      if (mover.admission().enabled()) mover.admission().save_state(w);
      w.end_section();
      w.begin_section("tenant");
      w.put_bool(arbiter.enabled());
      if (arbiter.enabled()) arbiter.save_state(w);
      w.end_section();
      w.begin_section("policy");
      w.put_bool(policy != nullptr);
      if (policy) policy->save_state(w);
      w.end_section();
      w.begin_section("trap");
      w.put_bool(emulation);
      if (emulation) trap.save_state(w);
      w.end_section();
      w.begin_section("oracle");
      w.put_bool(oracle);
      if (oracle) {
        w.put_u64(oracle_rankings.size());
        for (const std::vector<core::PageRank>& ranking : oracle_rankings) {
          core::save_ranking(w, ranking);
        }
      }
      w.end_section();
      w.begin_section("runner");
      w.put_u64(result.migrations);
      save_move_stats(w, result.moves);
      w.end_section();
      w.begin_section("telemetry");
      w.put_bool(telemetry != nullptr);
      if (telemetry != nullptr) telemetry->save_state(w);
      w.end_section();
      util::ckpt::Writer::save_atomic(
          util::ckpt::checkpoint_path(options.checkpoint.dir,
                                      options.checkpoint.basename, e + 1),
          w.finish());
      util::ckpt::prune(options.checkpoint.dir, options.checkpoint.basename,
                        options.checkpoint.keep_last);
    }
    if (options.on_epoch) options.on_epoch(e);
  }

  const std::uint64_t t1 = system.pmu().truth_total(pmu::Event::MemReadTier1);
  const std::uint64_t t2 = system.pmu().truth_total(pmu::Event::MemReadTier2);
  result.tier1_hitrate =
      (t1 + t2) == 0 ? 1.0
                     : static_cast<double>(t1) / static_cast<double>(t1 + t2);
  result.protection_faults = trap.total_faults();
  result.profiling_overhead_ns = daemon.driver().overhead_ns();
  result.degrade = daemon.degrade_stats();
  // The admission gate lives in the mover, not the daemon; fold its
  // throttle tally into the degradation report here.
  result.degrade.throttled_epochs = mover.admission().throttled_epochs();
  result.process_hitrates.reserve(system.processes().size());
  for (const sim::Process* p : system.processes()) {
    result.process_hitrates.push_back(p->tier0_hitrate());
  }
  if (arbiter.enabled()) {
    result.tenants = arbiter.snapshot_outcomes();
    for (std::size_t t = 0; t < result.tenants.size(); ++t) {
      result.tenants[t].hitrate = system.processes()[t]->tier0_hitrate();
    }
  }
  // Trace-side overhead is not charged inline by the daemon (the driver's
  // interrupt handlers run on the profiled cores); add it here.
  result.runtime_ns = system.now() + daemon.driver().trace_overhead_ns();
  return result;
}

}  // namespace

RunnerResult EndToEndRunner::run(const WorkloadFactory& factory,
                                 const sim::SimConfig& sim_config,
                                 const RunnerOptions& options) {
  std::string resume = options.checkpoint.resume_from;
  if (resume.empty() && options.checkpoint.resume_latest &&
      !options.checkpoint.dir.empty()) {
    resume = util::ckpt::latest_in(options.checkpoint.dir,
                                   options.checkpoint.basename);
  }
  if (!resume.empty()) {
    try {
      return run_impl(factory, sim_config, options, resume);
    } catch (const util::ckpt::CkptError& err) {
      TMPROF_LOG_WARN << "runner: checkpoint '" << resume
                      << "' rejected in section '" << err.section()
                      << "': " << err.what() << "; starting cold";
    }
  }
  return run_impl(factory, sim_config, options, "");
}

}  // namespace tmprof::tiering
