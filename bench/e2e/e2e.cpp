/// End-to-end host-cost benchmark (bench/e2e/README.md).
///
/// Runs the full tiering::EndToEndRunner pipeline on one named workload and
/// prints one JSON object as its last stdout line. Two modes:
///
///   --trace=0  untraced: one first-touch run for the simulated speedup,
///              then TMP (history) reps of EndToEndRunner::run until
///              --seconds have elapsed (at least 3 reps), timed per epoch
///              through the public RunnerOptions::on_epoch hook. Prints the
///              end-to-end metrics.
///   --trace=1  traced: pairs of one untraced rep and one run of a copy of
///              the runner's native-model epoch loop built from public calls,
///              with a steady_clock timer around each layer's call. Prints
///              the per-layer ledger.
///
/// Both modes check the pipeline's outputs (reps agree bit for bit, the
/// traced copy reproduces the runner, the checkpoint images match) and exit
/// non-zero when a check fails.
///
/// Usage: e2e_bench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
///        [--smoke=0|1] --workdir=DIR
///   --smoke=1  a tenth of each workload's epochs, for sanity runs only.
///   --workdir  scratch directory for checkpoints and telemetry exports;
///              created, and removed again on exit.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/daemon.hpp"
#include "monitors/ibs.hpp"
#include "pmu/events.hpp"
#include "sim/system.hpp"
#include "telemetry/telemetry.hpp"
#include "tiering/admission.hpp"
#include "tiering/mover.hpp"
#include "tiering/policies.hpp"
#include "tiering/runner.hpp"
#include "tiering/tenant.hpp"
#include "util/ckpt.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace tmprof;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Adds the lifetime of a scope to `acc`, in seconds.
class ScopeTimer {
 public:
  explicit ScopeTimer(double& acc) : acc_(acc), start_(Clock::now()) {}
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;
  ~ScopeTimer() { acc_ += seconds_between(start_, Clock::now()); }

 private:
  double& acc_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Testbed and workloads. The constants are copied from bench/common.hpp and
// bench/consolidation.cpp rather than included, so that edits to other
// benches cannot change what this benchmark measures.

constexpr std::uint64_t kMiB = 1ULL << 20;

std::uint64_t frames_of(std::uint64_t bytes) {
  return bytes >> mem::kPageShift;
}

/// The scaled Ryzen-3600X-like testbed (~1/64 of the paper's footprints).
sim::SimConfig testbed_config(std::uint64_t footprint_bytes) {
  sim::SimConfig cfg;
  cfg.cores = 6;
  cfg.llc_bytes = 1ULL << 20;
  cfg.llc_ways = 16;
  cfg.l2_bytes = 256ULL << 10;
  cfg.l2_tlb = mem::TlbLevelConfig{64, 4, 4, 4};
  cfg.instruction_fetch = true;
  cfg.tier1_frames = frames_of(footprint_bytes) * 5 / 4 + 2048;
  cfg.tier2_frames = 2048;
  return cfg;
}

/// IBS at 4x the paper's default rate: the scaled default period of 512
/// uops divided by 4.
constexpr std::uint64_t kIbsPeriod = 512 / 4;
/// The paper's 50 us per-page migration cost at the simulator's ~20x
/// shorter epochs.
constexpr util::SimNs kMigrationCostNs = 2500;

/// Pool workers of caching_sharded_stream. With the coordinating thread
/// that is 3 busy threads on the 4-vCPU reference box, leaving one vCPU to
/// the OS and the harness: with all 4 busy, the run-to-run spread of host
/// time doubled.
constexpr std::uint32_t kWorkers = 2;

/// One fully specified pipeline: what EndToEndRunner::run is called with.
struct Setup {
  tiering::WorkloadFactory factory;
  sim::SimConfig config;
  tiering::RunnerOptions options;  ///< policy "history"; sinks unset
  bool export_telemetry = false;   ///< export metrics + trace every epoch
};

tiering::RunnerOptions base_options(std::uint64_t seed, std::uint32_t epochs,
                                    std::uint64_t ops_per_epoch) {
  tiering::RunnerOptions opt;
  opt.policy = "history";
  opt.n_epochs = epochs;
  opt.ops_per_epoch = ops_per_epoch;
  opt.seed = seed;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(kIbsPeriod);
  opt.mover.per_page_cost_ns = kMigrationCostNs;
  opt.mover.min_rank = 3;
  return opt;
}

/// A Table III workload on the paper's Section VI-C tiering: `fast_bytes` of
/// DRAM-class tier 1 and an NVM-class tier 2 that holds the spill.
Setup table3_setup(const std::string& name, double scale,
                   std::uint64_t fast_bytes, std::uint32_t n_threads,
                   bool stream, std::uint64_t seed, std::uint32_t epochs,
                   std::uint64_t ops_per_epoch) {
  const workloads::WorkloadSpec spec = workloads::find_spec(name, scale);
  Setup s;
  s.factory = tiering::spec_factory(spec);
  s.config = testbed_config(spec.total_bytes);
  s.config.tier1_frames = frames_of(fast_bytes);
  s.config.tier2_frames = frames_of(spec.total_bytes) * 5 / 4 + (1 << 14);
  s.options = base_options(seed, epochs, ops_per_epoch);
  s.options.n_threads = n_threads;
  s.options.daemon.driver.stream.enabled = stream;
  return s;
}

// The fleet shapes of bench/consolidation --fleet: one Zipf latency service
// and churning batch tenants with Zipfian popularity.
constexpr std::uint32_t kTenants = 12;
constexpr double kChurnRate = 0.5;
constexpr std::uint64_t kServiceBytes = 6 * kMiB;
constexpr std::uint64_t kBatchBytes = 2 * kMiB;

Setup fleet_setup(std::uint64_t seed, std::uint32_t epochs,
                  std::uint64_t ops_per_epoch) {
  Setup s;
  s.factory = [ops_per_epoch](std::uint64_t factory_seed) {
    std::vector<workloads::WorkloadPtr> v;
    v.push_back(std::make_unique<workloads::ZipfWorkload>(
        kServiceBytes, 4096, 0.9, 0.05, factory_seed));
    const std::uint64_t cycle =
        std::max<std::uint64_t>(2 * ops_per_epoch / kTenants, 64);
    const auto session = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(cycle) *
                                      (1.0 - kChurnRate)));
    for (std::uint32_t i = 1; i < kTenants; ++i) {
      v.push_back(std::make_unique<workloads::ChurnSessionWorkload>(
          kBatchBytes, 4096, 0.9, session, cycle - session, 4,
          (static_cast<std::uint64_t>(i) * cycle) / kTenants,
          factory_seed + i));
    }
    return v;
  };

  const std::uint64_t total_bytes =
      kServiceBytes + (kTenants - 1) * kBatchBytes;
  s.config = testbed_config(total_bytes);
  s.config.tier1_frames = frames_of(8 * kMiB);
  s.config.tiers = {
      mem::TierSpec{"dram", s.config.tier1_frames, 80, 80, 0},
      mem::TierSpec{"cxl", frames_of(16 * kMiB), 150, 200, 0},
      mem::TierSpec{"nvm", frames_of(total_bytes) * 5 / 4 + (1 << 14), 300,
                    600, 0}};

  tiering::RunnerOptions& opt = s.options;
  opt = base_options(seed, epochs, ops_per_epoch);
  // Noise floor 1, as in the fleet bench: the service's steady footprint
  // must register as demand for quota arbitration to mean anything.
  opt.mover.min_rank = 1;
  opt.mover.admission.mode = tiering::AdmissionMode::Adaptive;
  // Shards run inline on the calling thread: the pool's wake-ups and their
  // run-to-run spread are caching_sharded_stream's subject, and here they
  // would only blur the write path.
  opt.n_threads = 1;
  opt.daemon.driver.stream.enabled = true;
  opt.daemon.driver.devmon.enabled = true;
  opt.fusion = core::FusionMode::SumDev;
  opt.daemon.devmon_weight = 0.008;

  tiering::TenantSpec service;
  service.name = "service";
  service.qos = tiering::QosClass::Latency;
  service.floor_frames = frames_of(5 * kMiB);
  service.bandwidth_weight = 4;
  opt.tenants.push_back(service);
  opt.process_weights.push_back(4.0);
  for (std::uint32_t i = 1; i < kTenants; ++i) {
    tiering::TenantSpec batch;
    batch.name = "batch_" + std::to_string(i);
    opt.tenants.push_back(batch);
    opt.process_weights.push_back(1.0 /
                                  std::pow(static_cast<double>(i), 0.8));
  }

  opt.checkpoint.every = 1;
  opt.checkpoint.keep_last = 2;
  opt.checkpoint.basename = "e2e";
  s.export_telemetry = true;
  return s;
}

struct Workload {
  std::string_view name;
  std::uint32_t epochs;
  std::uint64_t ops_per_epoch;
  Setup (*make)(std::uint64_t seed, std::uint32_t epochs,
                std::uint64_t ops_per_epoch);
};

/// Run lengths are fixed here, not flags, so two commits always measure the
/// same work. Rationale per workload: bench/e2e/README.md.
const std::array<Workload, 4> kWorkloads{{
    {"paper_web_serial", 21, 600'000,
     [](std::uint64_t seed, std::uint32_t epochs, std::uint64_t ops) {
       return table3_setup("web_serving", 1.0, 64 * kMiB, 0, false, seed,
                           epochs, ops);
     }},
    {"caching_sharded_stream", 21, 600'000,
     [](std::uint64_t seed, std::uint32_t epochs, std::uint64_t ops) {
       return table3_setup("data_caching", 1.0, 64 * kMiB, kWorkers, true, seed,
                           epochs, ops);
     }},
    {"caching_large_tier", 41, 200'000,
     [](std::uint64_t seed, std::uint32_t epochs, std::uint64_t ops) {
       return table3_setup("data_caching", 4.0, 256 * kMiB, 0, false, seed,
                           epochs, ops);
     }},
    {"fleet_everything_ckpt", 61, 120'000, fleet_setup},
}};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  std::string known;
  for (const Workload& w : kWorkloads) {
    known += (known.empty() ? "" : ", ") + std::string(w.name);
  }
  throw std::invalid_argument("--workload: unknown '" + name +
                              "' (expected one of " + known + ")");
}

// ---------------------------------------------------------------------------
// Run sinks: checkpoints and telemetry exports land in a per-run directory.

struct Wired {
  tiering::RunnerOptions options;
  std::unique_ptr<telemetry::Telemetry> telemetry;
};

Wired wire(const Setup& s, const fs::path& dir) {
  fs::create_directories(dir);
  Wired w{s.options, nullptr};
  if (w.options.checkpoint.every != 0) w.options.checkpoint.dir = dir.string();
  if (s.export_telemetry) {
    telemetry::TelemetryConfig cfg;
    cfg.metrics_out = (dir / "metrics.prom").string();
    cfg.trace_out = (dir / "trace.json").string();
    cfg.export_every = 1;
    w.telemetry = std::make_unique<telemetry::Telemetry>(cfg);
    w.options.telemetry = w.telemetry.get();
  }
  return w;
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path.string() + "'");
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Newest checkpoint image in `dir`, or empty when none was written.
std::vector<std::uint8_t> latest_checkpoint(const Setup& s,
                                            const fs::path& dir) {
  if (s.options.checkpoint.every == 0) return {};
  const std::string path =
      util::ckpt::latest_in(dir.string(), s.options.checkpoint.basename);
  return path.empty() ? std::vector<std::uint8_t>{} : read_file(path);
}

// ---------------------------------------------------------------------------
// Untraced reps.

struct Rep {
  tiering::RunnerResult result;
  double setup_s = 0.0;                 ///< run() call to on_epoch(0)
  double total_s = 0.0;                 ///< run() call to return
  std::vector<double> epoch_s;          ///< epochs 1..N-1, wall each
  bool epochs_in_order = true;          ///< on_epoch saw 0, 1, ..., N-1
};

Rep run_untraced(const Setup& s, const std::string& policy,
                 const fs::path& dir) {
  Wired wired = wire(s, dir);
  tiering::RunnerOptions& options = wired.options;
  options.policy = policy;
  std::vector<Clock::time_point> stamps;
  stamps.reserve(options.n_epochs);
  Rep rep;
  options.on_epoch = [&](std::uint32_t e) {
    stamps.push_back(Clock::now());
    if (e + 1 != stamps.size()) rep.epochs_in_order = false;
  };
  const Clock::time_point start = Clock::now();
  rep.result = tiering::EndToEndRunner::run(s.factory, s.config, options);
  rep.total_s = seconds_between(start, Clock::now());
  if (stamps.size() != options.n_epochs || stamps.empty()) {
    rep.epochs_in_order = false;
    return rep;
  }
  rep.setup_s = seconds_between(start, stamps[0]);
  for (std::size_t e = 1; e < stamps.size(); ++e) {
    rep.epoch_s.push_back(seconds_between(stamps[e - 1], stamps[e]));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Traced run: a copy of tiering/runner.cpp's native-model epoch loop (no
// resume, oracle or BadgerTrap), built only from public calls. Exists until
// in-program stage timers land; keep it in step with runner.cpp.

enum Stage : std::size_t {
  kStep,       ///< sim: System::step / step_parallel
  kTick,       ///< core: TmpDaemon::tick_into
  kFilter,     ///< tiering.runner: min_rank cut + PageTable::resolve
  kResidents,  ///< tiering.mover: PageMover::residents
  kChoose,     ///< tiering.policy: Policy::choose
  kApply,      ///< tiering.mover: PageMover::apply_placement
  kTenant,     ///< tiering.tenant: note_hitrate_bp + publish_telemetry
  kTelemetry,  ///< telemetry: tier gauges, epoch span, maybe_export
  kCkpt,       ///< util.ckpt: save_state calls, finish, save_atomic, prune
  kStages,
};

struct Ledger {
  std::array<double, kStages> stage_s{};  ///< epochs 1..N-1
  double measured_s = 0.0;                ///< wall of epochs 1..N-1
  double construct_s = 0.0;
  double warmup_s = 0.0;                  ///< epoch 0
  double total_s = 0.0;
  std::uint64_t ranked_pages = 0;         ///< epochs 1..N-1
  std::uint64_t candidates = 0;           ///< epochs 1..N-1
  std::uint64_t ckpt_bytes = 0;           ///< epochs 1..N-1
  std::uint64_t ckpt_writes = 0;          ///< epochs 1..N-1
  std::uint64_t admitted = 0;             ///< admission Admit verdicts
  std::uint64_t quota_shed = 0;           ///< frames refused over quota
  std::uint64_t total_ops = 0;            ///< System::total_ops at the end
};

struct Traced {
  tiering::RunnerResult result;
  Ledger ledger;
};

void save_move_stats(util::ckpt::Writer& w, const tiering::MoveStats& stats) {
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

Traced run_traced(const Setup& s, const fs::path& dir) {
  const Wired wired = wire(s, dir);
  const tiering::RunnerOptions& options = wired.options;
  if (options.policy == "first-touch" || options.policy == "oracle" ||
      options.slow_model != tiering::SlowMemoryModel::Native) {
    throw std::logic_error("traced loop covers migrating native runs only");
  }
  Traced out;
  Ledger& ledger = out.ledger;
  const Clock::time_point start = Clock::now();

  if (options.checkpoint.enabled()) {
    std::error_code ec;
    fs::create_directories(options.checkpoint.dir, ec);
  }
  sim::SimConfig config = s.config;
  if (options.n_threads >= 1) config.sharded_engine = true;
  sim::System system(config);
  {
    std::size_t i = 0;
    for (auto& generator : s.factory(options.seed)) {
      const double weight = i < options.process_weights.size()
                                ? options.process_weights[i]
                                : 1.0;
      system.add_process(std::move(generator), weight);
      ++i;
    }
  }

  core::DaemonConfig daemon_config = options.daemon;
  daemon_config.fusion = options.fusion;
  daemon_config.charge_overhead = true;
  daemon_config.fault = options.fault;
  core::TmpDaemon daemon(system, daemon_config);
  tiering::MoverConfig mover_config = options.mover;
  mover_config.fault = options.fault;
  tiering::PageMover mover(system, mover_config);

  tiering::TenantArbiter arbiter;
  if (!options.tenants.empty()) {
    arbiter.set_capacity(config.tier1_frames);
    std::vector<mem::Pid> pinned;
    for (std::size_t i = 0; i < options.tenants.size(); ++i) {
      const mem::Pid pid = system.processes()[i]->pid();
      arbiter.register_tenant(pid, options.tenants[i]);
      if (options.tenants[i].qos == tiering::QosClass::Latency) {
        pinned.push_back(pid);
      }
    }
    mover.set_tenant_arbiter(&arbiter);
    daemon.set_qos_lookup(
        [&arbiter](mem::Pid pid) { return arbiter.is_batch(pid); });
    daemon.set_pinned_pids(std::move(pinned));
  }

  telemetry::Telemetry* const telemetry = options.telemetry;
  telemetry::Counter epochs_counter;
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

  const std::unique_ptr<tiering::Policy> policy =
      tiering::make_policy(options.policy);
  tiering::RunnerResult& result = out.result;

  std::unique_ptr<util::ThreadPool> pool;
  if (options.n_threads > 1) {
    pool = std::make_unique<util::ThreadPool>(options.n_threads);
  }

  core::ProfileSnapshot snapshot;
  std::vector<core::PageRank> filtered;
  tiering::PageSizeMap sizes;
  tiering::PlacementSet current;
  ledger.construct_s = seconds_between(start, Clock::now());

  // Epoch 0 is warm-up: its stage times are discarded with it.
  std::array<double, kStages> warmup_stages{};
  for (std::uint32_t e = 0; e < options.n_epochs; ++e) {
    const Clock::time_point epoch_start = Clock::now();
    std::array<double, kStages>& acc =
        e == 0 ? warmup_stages : ledger.stage_s;
    const util::SimNs epoch_begin = system.now();
    {
      const ScopeTimer timer(acc[kStep]);
      if (config.sharded_engine) {
        system.step_parallel(options.ops_per_epoch, pool.get());
      } else {
        system.step(options.ops_per_epoch);
      }
    }
    {
      const ScopeTimer timer(acc[kTick]);
      daemon.tick_into(snapshot);
    }
    {
      const ScopeTimer timer(acc[kFilter]);
      filtered.clear();
      filtered.reserve(snapshot.ranking.size());
      sizes.clear();
      for (const core::PageRank& pr : snapshot.ranking) {
        if (pr.rank < options.mover.min_rank) break;  // descending
        sim::Process& proc = system.process(pr.key.pid);
        const mem::PteRef ref = proc.page_table().resolve(pr.key.page_va);
        if (!ref) continue;
        filtered.push_back(pr);
        sizes[pr.key] = ref.size;
      }
    }
    {
      const ScopeTimer timer(acc[kResidents]);
      current.clear();
      for (const auto& [key, size] : mover.residents(0)) current.insert(key);
    }
    tiering::PolicyContext ctx;
    ctx.capacity_frames = config.tier1_frames;
    ctx.current = &current;
    ctx.observed_ranking = &filtered;
    ctx.page_sizes = &sizes;
    tiering::PlacementSet next;
    {
      const ScopeTimer timer(acc[kChoose]);
      next = policy->choose(ctx);
    }
    tiering::MoveStats moved;
    {
      const ScopeTimer timer(acc[kApply]);
      moved = mover.apply_placement(next, filtered);
    }
    result.migrations += moved.promoted + moved.demoted;
    result.moves.merge(moved);
    {
      const ScopeTimer timer(acc[kTenant]);
      if (arbiter.enabled()) {
        for (std::uint32_t t = 0; t < arbiter.size(); ++t) {
          arbiter.note_hitrate_bp(
              t, static_cast<std::uint64_t>(
                     system.processes()[t]->tier0_hitrate() * 10000.0));
        }
        arbiter.publish_telemetry();
      }
    }
    {
      const ScopeTimer timer(acc[kTelemetry]);
      for (std::size_t t = 0; t < tier_occupied_gauges.size(); ++t) {
        tier_occupied_gauges[t].set(
            system.phys().used_frames(static_cast<mem::TierId>(t)));
        std::uint64_t fills = 0;
        for (const sim::Process* p : system.processes()) {
          fills += p->tier_fills(static_cast<mem::TierId>(t));
        }
        tier_fill_gauges[t].set(fills);
      }
      epochs_counter.inc();
      if (telemetry != nullptr) {
        telemetry->span("runner.epoch", epoch_begin, system.now(),
                        telemetry::kTidRunner);
        telemetry->maybe_export(e + 1);
      }
    }
    std::size_t ckpt_bytes = 0;
    {
      const ScopeTimer timer(acc[kCkpt]);
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
        w.put_bool(true);
        policy->save_state(w);
        w.end_section();
        w.begin_section("trap");
        w.put_bool(false);
        w.end_section();
        w.begin_section("oracle");
        w.put_bool(false);
        w.end_section();
        w.begin_section("runner");
        w.put_u64(result.migrations);
        save_move_stats(w, result.moves);
        w.end_section();
        w.begin_section("telemetry");
        w.put_bool(telemetry != nullptr);
        if (telemetry != nullptr) telemetry->save_state(w);
        w.end_section();
        const std::vector<std::uint8_t> image = w.finish();
        ckpt_bytes = image.size();
        util::ckpt::Writer::save_atomic(
            util::ckpt::checkpoint_path(options.checkpoint.dir,
                                        options.checkpoint.basename, e + 1),
            image);
        util::ckpt::prune(options.checkpoint.dir, options.checkpoint.basename,
                          options.checkpoint.keep_last);
      }
    }
    const double epoch_s = seconds_between(epoch_start, Clock::now());
    if (e == 0) {
      ledger.warmup_s = epoch_s;
    } else {
      ledger.measured_s += epoch_s;
      ledger.ranked_pages += snapshot.ranking.size();
      ledger.candidates += filtered.size();
      ledger.ckpt_bytes += ckpt_bytes;
      if (ckpt_bytes != 0) ++ledger.ckpt_writes;
    }
  }

  const std::uint64_t t1 = system.pmu().truth_total(pmu::Event::MemReadTier1);
  const std::uint64_t t2 = system.pmu().truth_total(pmu::Event::MemReadTier2);
  result.tier1_hitrate =
      (t1 + t2) == 0 ? 1.0
                     : static_cast<double>(t1) / static_cast<double>(t1 + t2);
  result.profiling_overhead_ns = daemon.driver().overhead_ns();
  result.degrade = daemon.degrade_stats();
  result.degrade.throttled_epochs = mover.admission().throttled_epochs();
  for (const sim::Process* p : system.processes()) {
    result.process_hitrates.push_back(p->tier0_hitrate());
  }
  if (arbiter.enabled()) {
    result.tenants = arbiter.snapshot_outcomes();
    for (std::size_t t = 0; t < result.tenants.size(); ++t) {
      result.tenants[t].hitrate = system.processes()[t]->tier0_hitrate();
      ledger.quota_shed += result.tenants[t].quota_shed;
    }
  }
  result.runtime_ns = system.now() + daemon.driver().trace_overhead_ns();
  ledger.admitted =
      mover.admission().registry().counter_value("mover_admitted_total");
  ledger.total_ops = system.total_ops();
  ledger.total_s = seconds_between(start, Clock::now());
  return out;
}

// ---------------------------------------------------------------------------
// Correctness checks.

bool same_outcome(const tiering::RunnerResult& a,
                  const tiering::RunnerResult& b) {
  const auto key = [](const tiering::RunnerResult& r) {
    const tiering::MoveStats& m = r.moves;
    const core::DegradeStats& d = r.degrade;
    return std::make_tuple(
        r.runtime_ns, r.tier1_hitrate, r.migrations, r.profiling_overhead_ns,
        r.protection_faults, r.process_hitrates,
        std::make_tuple(m.promoted, m.demoted, m.retried, m.deferred,
                        m.aborted, m.no_room, m.rejected, m.cooled, m.shed,
                        m.moved_bytes, m.cost_ns, m.backoff_ns),
        std::make_tuple(d.hwpc_wraps, d.scans_aborted, d.trace_dropped,
                        d.rescaled_epochs, d.fallback_epochs, d.pinned_epochs,
                        d.qos_fallback_epochs, d.throttled_epochs));
  };
  return key(a) == key(b);
}

/// Checkpoint image split into its framed sections (util/ckpt.hpp layout:
/// magic, version, then [u32 name_len][name][u64 len][payload][u32 crc]).
/// Empty on a malformed image.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections_of(
    const std::vector<std::uint8_t>& image) {
  const auto le = [&image](std::size_t at, std::size_t bytes) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(image[at + i]) << (8 * i);
    }
    return v;
  };
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections;
  std::size_t at = sizeof(util::ckpt::kMagic) + 4;
  // Each length is checked against the bytes left before it is added.
  while (at < image.size()) {
    if (image.size() - at < 4) return {};
    const std::uint64_t name_len = le(at, 4);
    at += 4;
    if (image.size() - at < 8 || image.size() - at - 8 < name_len) return {};
    const auto first = image.begin() + static_cast<std::ptrdiff_t>(at);
    std::string name(first, first + static_cast<std::ptrdiff_t>(name_len));
    at += name_len;
    const std::uint64_t len = le(at, 8);
    at += 8;
    if (image.size() - at < 4 || image.size() - at - 4 < len) return {};
    sections.emplace_back(
        std::move(name),
        std::vector<std::uint8_t>(
            image.begin() + static_cast<std::ptrdiff_t>(at),
            image.begin() + static_cast<std::ptrdiff_t>(at + len)));
    at += len + 4;
  }
  return sections;
}

/// Zero the value of the `stream_seal_ns` gauge in a telemetry payload: it
/// is the one host-clock value the registry holds, excluded from the
/// byte-identity bar (docs/OBSERVABILITY.md).
void mask_host_gauge(std::vector<std::uint8_t>& payload) {
  static constexpr std::string_view kName = "stream_seal_ns";
  const auto it =
      std::search(payload.begin(), payload.end(), kName.begin(), kName.end());
  const auto value = static_cast<std::size_t>(it - payload.begin()) +
                     kName.size();
  if (it == payload.end() || payload.size() - value < 8) return;
  std::fill_n(payload.begin() + static_cast<std::ptrdiff_t>(value), 8, 0);
}

/// True when two checkpoint images hold the same sections with the same
/// bytes, apart from the host-clock gauge.
bool same_checkpoint(const std::vector<std::uint8_t>& a,
                     const std::vector<std::uint8_t>& b) {
  auto sa = sections_of(a);
  auto sb = sections_of(b);
  if (sa.empty() || sa.size() != sb.size()) return false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].first == "telemetry") {
      mask_host_gauge(sa[i].second);
      mask_host_gauge(sb[i].second);
    }
    if (sa[i] != sb[i]) return false;
  }
  return true;
}

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    std::cerr << "e2e: check failed: " << what << '\n';
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void check_sane(Checks& checks, const tiering::RunnerResult& r,
                const std::string& what) {
  checks.expect(r.tier1_hitrate >= 0.0 && r.tier1_hitrate <= 1.0,
                what + ": tier-1 hitrate in [0, 1]");
  checks.expect(r.runtime_ns > 0, what + ": runtime > 0");
}

// ---------------------------------------------------------------------------
// Statistics and output.

/// Linear-interpolated quantile of `v` (p in [0, 1]).
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(std::string_view workload, const Checks& checks,
                  const std::vector<Metric>& metrics) {
  std::cout << std::setprecision(17);
  for (const Metric& m : metrics) {
    std::cout << workload << ' ' << m.name << ' ' << m.value << ' ' << m.unit
              << '\n';
  }
  std::cout << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << checks.attempted()
            << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name
              << "\": {\"value\": " << v << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}\n";
}

/// --trace=0: the end-to-end metrics.
std::vector<Metric> measure(const Setup& s, double budget_s,
                            const fs::path& workdir, Checks& checks) {
  const Clock::time_point start = Clock::now();
  // The first-touch run goes first: it also absorbs the process's cold
  // start, and it counts against the budget.
  const Rep first_touch = run_untraced(s, "first-touch", workdir / "ft");
  std::vector<Rep> reps;
  do {
    reps.push_back(run_untraced(s, "history", workdir / "history"));
  } while (reps.size() < 3 ||
           seconds_between(start, Clock::now()) < budget_s);

  std::vector<double> setups;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    const std::string name = "history rep " + std::to_string(i);
    checks.expect(rep.epochs_in_order, name + ": on_epoch fired per epoch");
    check_sane(checks, rep.result, name);
    if (i > 0) {
      checks.expect(same_outcome(rep.result, reps[0].result),
                    name + ": equals rep 0 bit for bit");
    }
    setups.push_back(rep.setup_s);
  }
  // Cost profile of the epochs: epoch e's fastest rep. Neighbours on a
  // shared host only ever add time, and they slow whole reps for seconds
  // at a time; the minimum across reps drops them while keeping the
  // epoch-to-epoch shape (footprint ramp, checkpoint epochs) that the
  // median and percentile below describe.
  std::vector<double> profile;
  for (std::size_t e = 0; e + 1 < s.options.n_epochs; ++e) {
    double fastest = std::numeric_limits<double>::infinity();
    for (const Rep& rep : reps) {
      if (e < rep.epoch_s.size()) fastest = std::min(fastest, rep.epoch_s[e]);
    }
    profile.push_back(fastest * 1e9 /
                      static_cast<double>(s.options.ops_per_epoch));
  }
  checks.expect(first_touch.epochs_in_order,
                "first-touch: on_epoch fired per epoch");
  check_sane(checks, first_touch.result, "first-touch");

  const tiering::RunnerResult& tmp = reps[0].result;
  const double speedup =
      ratio(static_cast<double>(first_touch.result.runtime_ns),
            static_cast<double>(tmp.runtime_ns));
  checks.expect(speedup > 0.0, "sim_speedup > 0");
  return {
      {"host_ns_per_op", quantile(profile, 0.5), "ns"},
      {"host_ns_per_op_p80", quantile(profile, 0.8), "ns"},
      {"setup_s", quantile(setups, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_speedup", speedup, "x"},
      {"tier1_hitrate", tmp.tier1_hitrate, "fraction"},
      {"profiling_overhead_pct",
       100.0 * ratio(static_cast<double>(tmp.profiling_overhead_ns),
                     static_cast<double>(tmp.runtime_ns)),
       "%"},
  };
}

/// --trace=1: the per-layer ledger, summed over every traced run.
std::vector<Metric> trace(const Setup& s, double budget_s,
                          const fs::path& workdir, Checks& checks) {
  const Clock::time_point start = Clock::now();
  const std::uint64_t ops = s.options.ops_per_epoch;
  const std::uint32_t epochs = s.options.n_epochs;
  std::vector<Rep> reps;
  std::vector<Traced> traced;
  do {
    // Alternate which side runs first: the first run in a process also
    // pays the allocator's and page cache's warm-up.
    const bool traced_first = reps.size() % 2 == 1;
    if (traced_first) traced.push_back(run_traced(s, workdir / "traced"));
    reps.push_back(run_untraced(s, "history", workdir / "runner"));
    if (!traced_first) traced.push_back(run_traced(s, workdir / "traced"));
    const std::string pair = "pair " + std::to_string(reps.size() - 1);
    const tiering::RunnerResult& t = traced.back().result;
    checks.expect(same_outcome(t, reps.back().result),
                  pair + ": traced loop equals EndToEndRunner bit for bit");
    if (reps.size() > 1) {
      checks.expect(same_outcome(reps.back().result, reps[0].result),
                    pair + ": runner equals pair 0 bit for bit");
    }
    checks.expect(traced.back().ledger.total_ops == epochs * ops,
                  pair + ": System::total_ops is epochs x ops");
    check_sane(checks, t, pair + " traced");
    if (s.options.checkpoint.every != 0) {
      checks.expect(same_checkpoint(latest_checkpoint(s, workdir / "traced"),
                                    latest_checkpoint(s, workdir / "runner")),
                    pair + ": final checkpoint images identical");
    }
  } while (seconds_between(start, Clock::now()) < budget_s);

  Ledger sum;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Ledger& l = traced[i].ledger;
    for (std::size_t st = 0; st < kStages; ++st) {
      sum.stage_s[st] += l.stage_s[st];
    }
    sum.measured_s += l.measured_s;
    sum.construct_s += l.construct_s;
    sum.warmup_s += l.warmup_s;
    sum.ranked_pages += l.ranked_pages;
    sum.candidates += l.candidates;
    sum.ckpt_bytes += l.ckpt_bytes;
    sum.ckpt_writes += l.ckpt_writes;
    traced_s.push_back(l.total_s);
    untraced_s.push_back(reps[i].total_s);
  }
  const Traced& last = traced.back();
  const tiering::MoveStats& m = last.result.moves;
  const core::DegradeStats& d = last.result.degrade;

  const auto n_runs = static_cast<double>(traced.size());
  const double measured_epochs = n_runs * static_cast<double>(epochs - 1);
  const auto share = [&](Stage st) {
    return ratio(sum.stage_s[st], sum.measured_s);
  };
  const auto us_per_epoch = [&](Stage st) {
    return ratio(sum.stage_s[st] * 1e6, measured_epochs);
  };
  double timed = 0.0;
  for (std::size_t st = 0; st < kStages; ++st) timed += sum.stage_s[st];

  const double landed = static_cast<double>(m.promoted + m.demoted);
  const double refused = static_cast<double>(m.rejected + m.cooled + m.shed);
  const double attempts =
      landed + refused + static_cast<double>(m.aborted + m.no_room);
  const double admission_decisions =
      static_cast<double>(last.ledger.admitted) + refused;
  return {
      {"sim.step_ns_per_op",
       ratio(sum.stage_s[kStep] * 1e9,
             measured_epochs * static_cast<double>(ops)),
       "ns"},
      {"sim.step_share", share(kStep), "fraction"},
      {"core.tick_us_per_epoch", us_per_epoch(kTick), "us"},
      {"core.tick_share", share(kTick), "fraction"},
      {"core.ranked_pages",
       ratio(static_cast<double>(sum.ranked_pages), measured_epochs), "count"},
      {"core.tick_ns_per_ranked_page",
       ratio(sum.stage_s[kTick] * 1e9, static_cast<double>(sum.ranked_pages)),
       "ns"},
      {"core.degraded_epochs",
       static_cast<double>(d.rescaled_epochs + d.fallback_epochs +
                           d.pinned_epochs + d.qos_fallback_epochs),
       "count"},
      {"tiering.runner.filter_us_per_epoch", us_per_epoch(kFilter), "us"},
      {"tiering.runner.filter_share", share(kFilter), "fraction"},
      {"tiering.policy.choose_us_per_epoch", us_per_epoch(kChoose), "us"},
      {"tiering.policy.choose_share", share(kChoose), "fraction"},
      {"tiering.policy.candidates",
       ratio(static_cast<double>(sum.candidates), measured_epochs), "count"},
      {"tiering.mover.residents_us_per_epoch", us_per_epoch(kResidents), "us"},
      {"tiering.mover.residents_share", share(kResidents), "fraction"},
      {"tiering.mover.apply_us_per_epoch", us_per_epoch(kApply), "us"},
      {"tiering.mover.apply_share", share(kApply), "fraction"},
      {"tiering.mover.moves_per_epoch", landed / static_cast<double>(epochs),
       "count"},
      {"tiering.mover.moved_mb", static_cast<double>(m.moved_bytes) / 1e6,
       "MB"},
      {"tiering.mover.useful_frac", attempts > 0.0 ? landed / attempts : 1.0,
       "fraction"},
      {"tiering.admission.reject_frac", ratio(refused, admission_decisions),
       "fraction"},
      {"tiering.tenant.quota_shed", static_cast<double>(last.ledger.quota_shed),
       "frames"},
      {"tiering.tenant.us_per_epoch", us_per_epoch(kTenant), "us"},
      {"tiering.tenant.share", share(kTenant), "fraction"},
      {"util.ckpt.save_ms_per_epoch", us_per_epoch(kCkpt) / 1e3, "ms"},
      {"util.ckpt.share", share(kCkpt), "fraction"},
      {"util.ckpt.mb_per_epoch",
       ratio(static_cast<double>(sum.ckpt_bytes) / 1e6,
             static_cast<double>(sum.ckpt_writes)),
       "MB"},
      {"util.ckpt.write_mb_per_s",
       ratio(static_cast<double>(sum.ckpt_bytes) / 1e6, sum.stage_s[kCkpt]),
       "MB/s"},
      {"telemetry.export_ms_per_epoch", us_per_epoch(kTelemetry) / 1e3, "ms"},
      {"telemetry.share", share(kTelemetry), "fraction"},
      {"setup.construct_ms", sum.construct_s * 1e3 / n_runs, "ms"},
      {"setup.warmup_epoch_ms", sum.warmup_s * 1e3 / n_runs, "ms"},
      {"other_share", 1.0 - ratio(timed, sum.measured_s), "fraction"},
      {"trace_overhead_pct",
       100.0 *
           (ratio(quantile(traced_s, 0.5), quantile(untraced_s, 0.5)) - 1.0),
       "%"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    const Workload& workload = find_workload(args.get("workload", ""));
    const std::uint64_t seed = args.get_u64("seed", 42);
    const double budget_s =
        args.get_checked_double("seconds", 10.0, 0.0, 600.0);
    const bool traced = args.get_bool("trace", false);
    const bool smoke = args.get_bool("smoke", false);
    const fs::path workdir = args.get("workdir", "");
    if (workdir.empty()) {
      throw std::invalid_argument("--workdir: a scratch directory is required");
    }
    // A tenth of the epochs, but at least one measured epoch past warm-up.
    const std::uint32_t epochs =
        smoke ? std::max<std::uint32_t>(workload.epochs / 10, 3)
              : workload.epochs;
    const Setup setup = workload.make(seed, epochs, workload.ops_per_epoch);

    std::cout << "# workload=" << workload.name << " seed=" << seed
              << " trace=" << (traced ? 1 : 0) << " epochs=" << epochs
              << " ops_per_epoch=" << workload.ops_per_epoch
              << " n_threads=" << setup.options.n_threads
              << " hardware_concurrency="
              << std::thread::hardware_concurrency() << '\n';
    Checks checks;
    fs::remove_all(workdir);
    const std::vector<Metric> metrics =
        traced ? trace(setup, budget_s, workdir, checks)
               : measure(setup, budget_s, workdir, checks);
    fs::remove_all(workdir);
    print_result(workload.name, checks, metrics);
    return checks.failed() == 0 ? 0 : 1;
  } catch (const std::exception& err) {
    std::cerr << "e2e: " << err.what() << '\n';
    return 2;
  }
}
