/// Consolidation — the paper's motivating datacenter scenario (Section I:
/// "VMs consolidated on individual cloud servers"): several *different*
/// workloads share one tiered machine, competing for the fast tier. This is
/// where the daemon's PID filter and the profiler's vendor-agnostic ranking
/// earn their keep: pages from every process rank in one list, and the
/// mover arbitrates the fast tier across tenants.
///
/// Reports per-tenant fast-tier hitrates under first-touch vs TMP-driven
/// placement, plus what the PID filter tracked.
///
/// Usage: consolidation [--epochs=N] [--ops-per-epoch=N] [--scale=F]
///        [--seed=N]
///
/// Fleet mode (--fleet; docs/CONSOLIDATION.md): tens of tenants with
/// arrival/departure churn and Zipfian popularity share one fast tier
/// through the sharded engine. Runs the latency service solo, then the full
/// fleet with tenant arbitration off and on, and reports per-tenant
/// hitrate/quota/shed telemetry (fleet.csv). `--isolation-check=1` turns
/// the QoS guarantee — the latency tenant stays within 5 pp of its solo
/// hitrate while batch neighbors storm — into the exit code (CI gates on
/// it). See bench::fleet_from_args for the fleet flags.
///
/// Usage: consolidation --fleet [--tenants=N] [--qos=latency|batch]
///        [--quota-floor=N] [--churn-rate=F] [--isolation-check=1]
///        [--epochs=N] [--ops-per-epoch=N] [--seed=N] [--policy=P]
///        [--min-rank=N] [--threads=N] [--admission=off|static|adaptive]
///        [--mig-bandwidth=F] [--mig-burst=F] [--cooldown-epochs=N]
///        [--min-benefit=N] [--min-history=N] [--max-moves=N]
///        [--fault-rate=F] [--fault-seed=N] [--fault-sites=a,b]
///        [--checkpoint-every=N] [--checkpoint-dir=D] [--resume-from=F]
///        [--resume-latest=0|1] [--keep-last=K] [--csv=0|1]
///        [--metrics-out=F] [--trace-out=F] [--telemetry-every=N]

#include <cmath>
#include <iostream>
#include <memory>

#include "common.hpp"
#include "core/daemon.hpp"
#include "tiering/mover.hpp"
#include "tiering/runner.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace tmprof;

struct TenantResult {
  std::string name;
  double hitrate = 0.0;
  std::uint64_t rss_mb = 0;
};

enum class Mode { FirstTouch, TmpRaw, TmpDensity };

// One instance each of a cache service, an HPC solver, and a random-access
// kernel — deliberately mixing 4K and THP-backed tenants.
const std::vector<std::string> kTenants{"data_caching", "lulesh", "gups"};

std::vector<TenantResult> run(Mode mode, double scale, std::uint32_t epochs,
                              std::uint64_t ops_per_epoch,
                              std::uint64_t seed) {
  std::uint64_t total_bytes = 0;
  std::vector<workloads::WorkloadSpec> specs;
  for (const auto& name : kTenants) {
    specs.push_back(workloads::find_spec(name, scale));
    total_bytes += specs.back().total_bytes;
  }
  sim::SimConfig cfg = bench::testbed_config(total_bytes);
  cfg.tier1_frames = (64ULL << 20) >> mem::kPageShift;
  cfg.tier2_frames = (total_bytes >> mem::kPageShift) * 5 / 4 + (1 << 14);

  sim::System system(cfg);
  std::vector<std::pair<std::string, mem::Pid>> pids;
  for (std::size_t t = 0; t < specs.size(); ++t) {
    // One process per tenant keeps the attribution story crisp.
    const mem::Pid pid = system.add_process(
        workloads::make_workload(specs[t], 0, seed + t));
    pids.emplace_back(kTenants[t], pid);
  }

  core::DaemonConfig dcfg;
  dcfg.driver.ibs = bench::scaled_ibs(4);
  core::TmpDaemon daemon(system, dcfg);
  tiering::MoverConfig mcfg;
  mcfg.per_page_cost_ns = 2500;
  mcfg.min_rank = 3;
  tiering::PageMover mover(system, mcfg);

  for (std::uint32_t e = 0; e < epochs; ++e) {
    system.step(ops_per_epoch);
    core::ProfileSnapshot snap = daemon.tick();
    if (mode == Mode::FirstTouch) continue;
    if (mode == Mode::TmpDensity) {
      // Raw counts over-value huge pages (one 2 MiB THP entry aggregates
      // 512 frames of samples but delivers little value per frame when its
      // traffic is uniform). Capacity allocation is a knapsack: order by
      // rank *density* — hotness per 4 KiB frame.
      for (core::PageRank& pr : snap.ranking) {
        sim::Process& proc = system.process(pr.key.pid);
        const mem::PteRef ref = proc.page_table().resolve(pr.key.page_va);
        if (ref) pr.rank /= mem::pages_in(ref.size);
      }
      std::sort(snap.ranking.begin(), snap.ranking.end(),
                [](const core::PageRank& a, const core::PageRank& b) {
                  if (a.rank != b.rank) return a.rank > b.rank;
                  return a.key < b.key;
                });
    }
    mover.apply(snap.ranking, {cfg.tier1_frames - 128});
  }

  std::vector<TenantResult> results;
  for (const auto& [name, pid] : pids) {
    sim::Process& proc = system.process(pid);
    results.push_back(TenantResult{
        name, proc.tier0_hitrate(),
        (proc.rss_pages() * mem::kPageSize) >> 20});
  }
  return results;
}

// ---------------------------------------------------------------------------
// Fleet mode (docs/CONSOLIDATION.md)

constexpr std::uint64_t kMiB = 1ULL << 20;
constexpr std::uint64_t kServiceBytes = 6 * kMiB;
constexpr std::uint64_t kBatchBytes = 2 * kMiB;

/// Tenant specs for the fleet: tenant 0 is the latency service, tenants
/// 1..N-1 are batch neighbors. Floors beyond the service's are zero — batch
/// tenants live entirely on burst, which is what the arbiter reclaims.
std::vector<tiering::TenantSpec> fleet_tenants(const bench::FleetArgs& fleet,
                                               std::uint64_t floor_frames) {
  std::vector<tiering::TenantSpec> tenants;
  tiering::TenantSpec service;
  service.name = "service";
  service.qos = fleet.service_qos;
  service.floor_frames = floor_frames;
  service.bandwidth_weight = 4;
  tenants.push_back(service);
  for (std::uint32_t i = 1; i < fleet.n_tenants; ++i) {
    tiering::TenantSpec batch;
    batch.name = "batch_" + std::to_string(i);
    batch.qos = tiering::QosClass::Batch;
    batch.floor_frames = 0;
    batch.bandwidth_weight = 1;
    tenants.push_back(batch);
  }
  return tenants;
}

/// Zipfian tenant popularity: the service is the host's popular tenant and
/// the i-th batch neighbor issues references in proportion to 1/i^0.8, so a
/// few noisy neighbors dominate the churn the way a few hot tenants
/// dominate a real consolidated host.
std::vector<double> fleet_weights(std::uint32_t n_tenants) {
  std::vector<double> weights{4.0};
  for (std::uint32_t i = 1; i < n_tenants; ++i) {
    weights.push_back(1.0 / std::pow(static_cast<double>(i), 0.8));
  }
  return weights;
}

/// The fleet workload factory: a Zipf service plus churning batch sessions
/// staggered so arrivals and departures interleave across the run.
tiering::WorkloadFactory fleet_factory(const bench::FleetArgs& fleet,
                                       std::uint64_t ops_per_epoch) {
  const std::uint32_t n = fleet.n_tenants;
  const double churn = fleet.churn_rate;
  return [n, churn, ops_per_epoch](std::uint64_t seed) {
    std::vector<workloads::WorkloadPtr> v;
    v.push_back(std::make_unique<workloads::ZipfWorkload>(
        kServiceBytes, 4096, 0.9, 0.05, seed));
    // Each batch tenant cycles through active sessions and idle gaps; the
    // cycle is ~2 epochs of its own reference stream and --churn-rate is
    // the idle fraction. Generation rotation gives each arrival a fresh
    // hot set.
    const std::uint64_t cycle =
        std::max<std::uint64_t>(2 * ops_per_epoch / n, 64);
    const auto session =
        std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(cycle) * (1.0 - churn)));
    for (std::uint32_t i = 1; i < n; ++i) {
      v.push_back(std::make_unique<workloads::ChurnSessionWorkload>(
          kBatchBytes, 4096, 0.9, session, cycle - session, 4,
          (static_cast<std::uint64_t>(i) * cycle) / n, seed + i));
    }
    return v;
  };
}

int fleet_main(const util::ArgParser& args) {
  const bench::FleetArgs fleet = bench::fleet_from_args(args);
  const std::uint32_t epochs = args.get_u32("epochs", 10);
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 120'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const bool write_csv = args.get_bool("csv", true);
  const std::unique_ptr<telemetry::Telemetry> telemetry =
      bench::telemetry_from_args(args);
  const std::string policy = args.get("policy", "history");
  // Noise floor 1: with one A-bit scan per epoch the coverage signal is a
  // single count, and a floor of 3 would leave only IBS-sampled pages
  // eligible — the service's steady footprint must register as demand for
  // quota arbitration to mean anything.
  const std::uint64_t min_rank = args.get_u64("min-rank", 1);
  const tiering::AdmissionConfig admission = bench::admission_from_args(args);
  const std::uint32_t threads = bench::selected_threads(args);
  const util::FaultConfig fault = bench::fault_from_args(args);
  const util::ckpt::Options checkpoint = bench::checkpoint_from_args(args);
  args.reject_unread();

  // Fast tier sized to the service plus a burst pool far smaller than the
  // fleet's combined footprint, so batch churn creates genuine pressure.
  const std::uint64_t tier1_frames = (8 * kMiB) >> mem::kPageShift;
  const std::uint64_t floor_frames = fleet.quota_floor_frames != 0
                                         ? fleet.quota_floor_frames
                                         : (5 * kMiB) >> mem::kPageShift;
  const std::uint64_t total_bytes =
      kServiceBytes + static_cast<std::uint64_t>(fleet.n_tenants - 1) *
                          kBatchBytes;
  sim::SimConfig cfg = bench::testbed_config(total_bytes);
  cfg.tier1_frames = tier1_frames;
  cfg.tier2_frames = (total_bytes >> mem::kPageShift) * 5 / 4 + (1 << 14);

  tiering::RunnerOptions opt;
  opt.n_epochs = epochs;
  opt.ops_per_epoch = ops_per_epoch;
  opt.seed = seed;
  opt.policy = policy;
  opt.daemon.driver.ibs = bench::scaled_ibs(4);
  opt.mover.per_page_cost_ns = 2500;
  opt.mover.min_rank = min_rank;
  opt.mover.admission = admission;
  opt.n_threads = threads;
  opt.fault = fault;
  opt.checkpoint = checkpoint;
  opt.telemetry = telemetry.get();

  std::cout << "Fleet consolidation: 1 " << to_string(fleet.service_qos)
            << " service + " << (fleet.n_tenants - 1)
            << " churning batch tenants over " << (tier1_frames >> 8)
            << " MiB of fast tier (" << epochs << " epochs x "
            << ops_per_epoch << " ops, churn rate " << fleet.churn_rate
            << ")\n\n";

  // Solo baseline: the service alone, arbitration off. Its hitrate is the
  // bar the isolation guarantee is measured against.
  tiering::RunnerOptions solo_opt = opt;
  solo_opt.checkpoint.basename = "fleet-solo";
  solo_opt.telemetry_label = "fleet/solo";
  const tiering::RunnerResult solo = tiering::EndToEndRunner::run(
      [ops_per_epoch](std::uint64_t s) {
        std::vector<workloads::WorkloadPtr> v;
        (void)ops_per_epoch;
        v.push_back(std::make_unique<workloads::ZipfWorkload>(
            kServiceBytes, 4096, 0.9, 0.05, s));
        return v;
      },
      cfg, solo_opt);

  const tiering::WorkloadFactory factory =
      fleet_factory(fleet, ops_per_epoch);
  const std::vector<double> weights = fleet_weights(fleet.n_tenants);
  const std::vector<tiering::TenantSpec> tenants =
      fleet_tenants(fleet, floor_frames);

  // Full fleet, arbitration off: every tenant competes in one global
  // ranking and the noisy neighbors crowd the service out.
  tiering::RunnerOptions off_opt = opt;
  off_opt.process_weights = weights;
  off_opt.checkpoint.basename = "fleet-off";
  off_opt.telemetry_label = "fleet/off";
  const tiering::RunnerResult off =
      tiering::EndToEndRunner::run(factory, cfg, off_opt);

  // Full fleet, arbitration on: quota floors, burst reclaim and the
  // QoS-aware degradation ladder.
  tiering::RunnerOptions on_opt = opt;
  on_opt.process_weights = weights;
  on_opt.tenants = tenants;
  on_opt.checkpoint.basename = "fleet-on";
  on_opt.telemetry_label = "fleet/on";
  const tiering::RunnerResult on =
      tiering::EndToEndRunner::run(factory, cfg, on_opt);

  std::unique_ptr<util::CsvWriter> csv;
  if (write_csv) {
    csv = std::make_unique<util::CsvWriter>("fleet.csv");
    csv->write_row(bench::fleet_csv_header());
  }
  const auto emit = [&](const std::string& mode, const std::string& tenant,
                        tiering::QosClass qos, double hitrate,
                        const tiering::TenantOutcome* out) {
    if (!csv) return;
    csv->write_row({mode, tenant, std::string(to_string(qos)),
                    util::TextTable::fixed(hitrate, 4),
                    std::to_string(out != nullptr ? out->floor_frames : 0),
                    std::to_string(out != nullptr ? out->grant_frames : 0),
                    std::to_string(out != nullptr ? out->occupancy_frames : 0),
                    std::to_string(out != nullptr ? out->quota_shed : 0),
                    std::to_string(out != nullptr ? out->reclaimed_frames : 0),
                    std::to_string(out != nullptr ? out->bandwidth_rejected
                                                  : 0)});
  };
  emit("solo", "service", fleet.service_qos, solo.process_hitrates.at(0),
       nullptr);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    emit("fleet-off", tenants[t].name, tenants[t].qos,
         off.process_hitrates.at(t), nullptr);
  }
  for (std::size_t t = 0; t < on.tenants.size(); ++t) {
    emit("fleet-on", on.tenants[t].name, on.tenants[t].qos,
         on.tenants[t].hitrate, &on.tenants[t]);
  }

  util::TextTable table({"tenant", "qos", "solo", "fleet-off", "fleet-on",
                         "grant", "occupancy", "shed", "reclaimed"});
  for (std::size_t t = 0; t < on.tenants.size(); ++t) {
    const tiering::TenantOutcome& out = on.tenants[t];
    table.add_row(
        {out.name, std::string(to_string(out.qos)),
         t == 0 ? util::TextTable::percent(solo.process_hitrates.at(0)) : "-",
         util::TextTable::percent(off.process_hitrates.at(t)),
         util::TextTable::percent(out.hitrate),
         util::TextTable::num(out.grant_frames),
         util::TextTable::num(out.occupancy_frames),
         util::TextTable::num(out.quota_shed),
         util::TextTable::num(out.reclaimed_frames)});
  }
  table.print(std::cout);

  const double solo_hit = solo.process_hitrates.at(0);
  const double on_hit = on.tenants.empty() ? 0.0 : on.tenants.at(0).hitrate;
  const double off_hit = off.process_hitrates.at(0);
  const bool isolated = solo_hit - on_hit <= 0.05;
  std::cout << "\nService hitrate: solo "
            << util::TextTable::percent(solo_hit) << ", fleet w/o arbitration "
            << util::TextTable::percent(off_hit) << ", fleet w/ arbitration "
            << util::TextTable::percent(on_hit) << '\n';
  std::cout << "Isolation (latency tenant within 5 pp of solo under batch "
               "churn): "
            << (isolated ? "yes" : "NO") << '\n';
  if (csv) std::cout << "Rows written to fleet.csv\n";
  if (telemetry) telemetry->export_final();
  return (fleet.isolation_check && !isolated) ? 1 : 0;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  if (args.get_bool("fleet", false)) return fleet_main(args);
  const std::uint32_t epochs = args.get_u32("epochs", 10);
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 600'000);
  const double scale = bench::scale_from_args(args, 0.5, kTenants);
  const std::uint64_t seed = args.get_u64("seed", 42);
  args.reject_unread();

  std::cout << "Consolidation: data_caching + lulesh + gups sharing one "
               "64 MiB fast tier\n\n";
  const auto baseline =
      run(Mode::FirstTouch, scale, epochs, ops_per_epoch, seed);
  const auto raw = run(Mode::TmpRaw, scale, epochs, ops_per_epoch, seed);
  const auto density =
      run(Mode::TmpDensity, scale, epochs, ops_per_epoch, seed);

  util::TextTable table({"tenant", "rss_mb", "first-touch", "tmp (raw rank)",
                         "tmp (density rank)"});
  for (std::size_t t = 0; t < baseline.size(); ++t) {
    table.add_row(
        {baseline[t].name, util::TextTable::num(baseline[t].rss_mb),
         util::TextTable::percent(baseline[t].hitrate),
         util::TextTable::percent(raw[t].hitrate),
         util::TextTable::percent(density[t].hitrate)});
  }
  table.print(std::cout);
  std::cout << "\nFinding: with mixed 4 KiB and THP tenants, the paper's "
               "raw-count rank over-values huge pages (a 2 MiB entry "
               "aggregates 512 frames of samples), steering fast memory to "
               "the uniform-random tenant. Ranking by hotness *density* "
               "(per 4 KiB frame) restores cross-tenant arbitration — a "
               "capacity-allocation subtlety the paper's 4 KiB-centric "
               "evaluation never hits.\n";
  return 0;
}

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
