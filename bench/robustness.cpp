/// Robustness under injected faults (docs/ROBUSTNESS.md) — sweep the fault
/// rate across every fault site (migration EBUSY/ENOMEM, trace-buffer
/// overflow, A-bit scan aborts, HWPC counter wraps) and measure how far the
/// TMP-driven History policy degrades from its fault-free speedup over the
/// first-come-first-allocate baseline.
///
/// Expected shape: History degrades *gracefully* toward the first-touch
/// baseline — the retrying mover, the deferred-promotion queue and the
/// daemon's degradation ladder keep most of the speedup at moderate fault
/// rates (within ~30% of fault-free at rate 0.2) instead of collapsing.
/// The baseline is re-run at every rate so the comparison stays honest:
/// first-touch performs no migrations, so only its profiling side is
/// perturbed.
///
/// All runs are deterministic: the same --fault-seed reproduces the same
/// fault schedule bit-for-bit at any --threads value.
///
/// Usage: robustness [--workload=<name>] [--scale=F] [--epochs=N]
///        [--ops-per-epoch=N] [--seed=N] [--time-scale=F]
///        [--rates=0,0.05,...] [--fault-seed=N] [--fault-sites=a,b]
///        [--threads=N] [--min-rank=N] [--admission=off|static|adaptive]
///        [--mig-bandwidth=F] [--mig-burst=F] [--cooldown-epochs=N]
///        [--min-benefit=N] [--min-history=N] [--max-moves=N] [--csv=0|1]
///        [--metrics-out=F] [--trace-out=F] [--telemetry-every=N]
///
/// Storm mode (--storm; docs/ADMISSION.md): instead of fault sweeps, run
/// the migration-storm scenarios (phase-shift slot flipping, Zipf churn)
/// with the admission gate off and on, and report migrated bytes saved at
/// equal-or-better hitrate. `--storm-check=1` turns the >=20%-savings
/// criterion into the exit code (CI gates on it).
///
/// Usage: robustness --storm [--storm-check=1] [--epochs=N]
///        [--ops-per-epoch=N] [--seed=N] [--time-scale=F] [--policy=P]
///        [--min-rank=N] [--threads=N] [--admission=off|static|adaptive]
///        [--mig-bandwidth=F] [--mig-burst=F] [--cooldown-epochs=N]
///        [--min-benefit=N] [--min-history=N] [--max-moves=N] [--csv=0|1]
///        [--metrics-out=F] [--trace-out=F] [--telemetry-every=N]

#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "common.hpp"
#include "tiering/options.hpp"
#include "tiering/runner.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workloads/synthetic.hpp"

namespace {

/// The --rates sweep, each entry a probability; rate 0 anchors the
/// degradation, so it is put first when the list does not start with it.
std::vector<double> rates_from_args(const tmprof::util::ArgParser& args) {
  using namespace tmprof;
  std::vector<double> rates = bench::list_from_args(
      args, "rates", "0,0.05,0.1,0.2,0.4", bench::rate_entry);
  if (rates.front() != 0.0) rates.insert(rates.begin(), 0.0);
  return rates;
}

struct StormScenario {
  std::string name;
  std::uint64_t footprint;
  std::uint64_t tier1_frames;
  tmprof::tiering::WorkloadFactory factory;
};

/// The storm scenarios. Both are sized so tier 1 holds the genuinely-hot
/// working set with no slack for churn, which is exactly when an ungated
/// mover thrashes.
std::vector<StormScenario> storm_scenarios(std::uint64_t ops_per_epoch) {
  using namespace tmprof;
  constexpr std::uint64_t kMiB = 1ULL << 20;
  std::vector<StormScenario> scenarios;

  // Phase-shift: 4 MiB stable region plus two 4 MiB slots, the hot slot
  // flipping every epoch. Tier 1 holds stable + one slot: each flip makes
  // the ungated mover demote the old slot and promote the new one.
  scenarios.push_back(StormScenario{
      "phase-shift", 12 * kMiB, (8 * kMiB) >> mem::kPageShift,
      [ops_per_epoch](std::uint64_t seed) {
        std::vector<workloads::WorkloadPtr> v;
        v.push_back(std::make_unique<workloads::PhaseShiftWorkload>(
            4 * kMiB, 4 * kMiB, 2, ops_per_epoch, 0.5, seed));
        return v;
      }});

  // Zipf churn: the skewed head slides by 1/8 of the records every two
  // epochs, so mid-rank pages heat up and die in bursts.
  scenarios.push_back(StormScenario{
      "zipf-churn", 16 * kMiB, (4 * kMiB) >> mem::kPageShift,
      [ops_per_epoch](std::uint64_t seed) {
        std::vector<workloads::WorkloadPtr> v;
        const std::uint64_t records = (16 * kMiB) / 4096;
        v.push_back(std::make_unique<workloads::ZipfChurnWorkload>(
            16 * kMiB, 4096, 0.9, 2 * ops_per_epoch, records / 8, seed));
        return v;
      }});
  return scenarios;
}

int storm_main(const tmprof::util::ArgParser& args) {
  using namespace tmprof;
  const std::uint32_t epochs = args.get_u32("epochs", 12);
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 200'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const double time_scale = args.get_double("time-scale", 20.0);
  const bool write_csv = args.get_bool("csv", true);
  const bool check = args.get_bool("storm-check", false);
  const std::unique_ptr<telemetry::Telemetry> telemetry =
      bench::telemetry_from_args(args);

  // The comparison needs the gate on: an explicit --admission=off would
  // compare off against off, so Static stands in as the storm default.
  tiering::AdmissionConfig adm = bench::admission_from_args(args);
  if (adm.mode == tiering::AdmissionMode::Off) {
    adm.mode = tiering::AdmissionMode::Static;
  }
  const std::string policy = args.get("policy", "history");
  const std::uint64_t min_rank = args.get_u64("min-rank", 3);
  const std::uint32_t threads = bench::selected_threads(args);
  args.reject_unread();

  // One machine and one set of run options per scenario; the gated run
  // adds `adm`. Every configuration is checked before the header and the
  // CSV, so a rejected run leaves an earlier storm.csv in place.
  const std::vector<StormScenario> scenarios = storm_scenarios(ops_per_epoch);
  const auto config_for = [&](const StormScenario& scenario) {
    sim::SimConfig cfg = bench::testbed_config(scenario.footprint);
    cfg.tier1_frames = scenario.tier1_frames;
    cfg.tier2_frames =
        (scenario.footprint >> mem::kPageShift) * 5 / 4 + (1 << 14);

    tiering::RunnerOptions opt;
    opt.n_epochs = epochs;
    opt.ops_per_epoch = ops_per_epoch;
    opt.seed = seed;
    opt.policy = policy;
    opt.daemon.driver.ibs = bench::scaled_ibs(4);
    opt.mover.per_page_cost_ns =
        static_cast<util::SimNs>(50.0 * 1000.0 / time_scale);
    opt.mover.min_rank = min_rank;
    opt.n_threads = threads;
    opt.telemetry = telemetry.get();
    return std::pair{cfg, opt};
  };
  for (const StormScenario& scenario : scenarios) {
    auto [cfg, opt] = config_for(scenario);
    const std::size_t processes = scenario.factory(seed).size();
    tiering::check_options(cfg, opt, processes);
    opt.mover.admission = adm;
    tiering::check_options(cfg, opt, processes);
  }

  std::cout << "Migration storms: admission off vs "
            << to_string(adm.mode) << " (" << epochs << " epochs x "
            << ops_per_epoch << " ops)\n\n";
  util::TextTable table({"scenario", "admission", "hitrate", "migrations",
                         "moved_mb", "rejected", "cooled", "shed",
                         "saved_pct", "hitrate_delta"});
  std::unique_ptr<util::CsvWriter> csv;
  if (write_csv) {
    csv = std::make_unique<util::CsvWriter>("storm.csv");
    csv->write_row(bench::storm_csv_header());
  }

  bool storm_ok = false;
  for (const StormScenario& scenario : scenarios) {
    auto [cfg, opt] = config_for(scenario);
    opt.telemetry_label = scenario.name + "/off";
    const tiering::RunnerResult off =
        tiering::EndToEndRunner::run(scenario.factory, cfg, opt);
    opt.mover.admission = adm;
    opt.telemetry_label = scenario.name + "/" + std::string(to_string(adm.mode));
    const tiering::RunnerResult gated =
        tiering::EndToEndRunner::run(scenario.factory, cfg, opt);

    const double off_mb =
        static_cast<double>(off.moves.moved_bytes) / 1e6;
    const double gated_mb =
        static_cast<double>(gated.moves.moved_bytes) / 1e6;
    const double saved_pct =
        off.moves.moved_bytes == 0
            ? 0.0
            : 100.0 * (1.0 - gated_mb / off_mb);
    const double hit_delta = gated.tier1_hitrate - off.tier1_hitrate;
    if (saved_pct >= 20.0 && hit_delta >= -1e-9) storm_ok = true;

    auto emit = [&](const tiering::RunnerResult& r, const std::string& mode,
                    double saved, double delta) {
      table.add_row({scenario.name, mode,
                     util::TextTable::percent(r.tier1_hitrate),
                     util::TextTable::num(r.migrations),
                     util::TextTable::fixed(
                         static_cast<double>(r.moves.moved_bytes) / 1e6, 2),
                     util::TextTable::num(r.moves.rejected),
                     util::TextTable::num(r.moves.cooled),
                     util::TextTable::num(r.moves.shed),
                     util::TextTable::fixed(saved, 1),
                     util::TextTable::fixed(delta, 4)});
      if (csv) {
        csv->write_row(
            {scenario.name, mode,
             std::to_string(r.runtime_ns / util::kMillisecond),
             util::TextTable::fixed(r.tier1_hitrate, 4),
             std::to_string(r.migrations),
             util::TextTable::fixed(
                 static_cast<double>(r.moves.moved_bytes) / 1e6, 3),
             std::to_string(r.moves.rejected),
             std::to_string(r.moves.cooled), std::to_string(r.moves.shed),
             std::to_string(r.degrade.throttled_epochs),
             util::TextTable::fixed(saved, 2),
             util::TextTable::fixed(delta, 6)});
      }
    };
    emit(off, "off", 0.0, 0.0);
    emit(gated, std::string(to_string(adm.mode)), saved_pct, hit_delta);
  }

  table.print(std::cout);
  std::cout << "\nStorm resilience (>=20% fewer migrated bytes at "
               "equal-or-better hitrate in >=1 scenario): "
            << (storm_ok ? "yes" : "NO") << '\n';
  if (csv) std::cout << "Rows written to storm.csv\n";
  if (telemetry) telemetry->export_final();
  return (check && !storm_ok) ? 1 : 0;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  using namespace tmprof;
  const util::ArgParser args(argc, argv);
  if (args.get_bool("storm", false)) return storm_main(args);
  const std::uint32_t epochs = args.get_u32("epochs", 8);
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 400'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const double time_scale = args.get_double("time-scale", 20.0);
  const bool write_csv = args.get_bool("csv", true);
  const std::vector<double> rates = rates_from_args(args);
  const std::unique_ptr<telemetry::Telemetry> telemetry =
      bench::telemetry_from_args(args);
  const std::string sites = args.get("fault-sites", "all");
  const util::FaultConfig fault = bench::fault_schedule_from_args(args);
  const std::uint64_t min_rank = args.get_u64("min-rank", 3);
  const std::uint32_t threads = bench::selected_threads(args);
  const tiering::AdmissionConfig admission = bench::admission_from_args(args);
  const std::vector<workloads::WorkloadSpec> specs =
      bench::selected_specs(args);
  args.reject_unread();
  auto scaled_ns = [time_scale](double paper_us) {
    return static_cast<util::SimNs>(paper_us * 1000.0 / time_scale);
  };

  // One machine per workload and one set of run options per rate; the
  // policy and telemetry label vary per run below. Every configuration is
  // checked before the header and the CSV, so a rejected run leaves an
  // earlier robustness.csv in place.
  const auto machine_for = [](const workloads::WorkloadSpec& spec) {
    sim::SimConfig cfg = bench::testbed_config(spec.total_bytes);
    // Fast tier sized to a quarter of the footprint so placement matters at
    // any --scale (the degradation study needs migration pressure, not the
    // paper's absolute tier sizes); the slow tier absorbs the rest.
    cfg.tier1_frames = std::max<std::uint64_t>(
        1 << 9, (spec.total_bytes >> mem::kPageShift) / 4);
    cfg.tier2_frames =
        (spec.total_bytes >> mem::kPageShift) * 5 / 4 + (1 << 14);
    return cfg;
  };
  const auto options_for = [&](double rate) {
    tiering::RunnerOptions opt;
    opt.n_epochs = epochs;
    opt.ops_per_epoch = ops_per_epoch;
    opt.seed = seed;
    opt.daemon.driver.ibs = bench::scaled_ibs(4);
    opt.mover.per_page_cost_ns = scaled_ns(50.0);
    opt.mover.min_rank = min_rank;
    opt.n_threads = threads;
    opt.mover.admission = admission;
    opt.fault = fault;
    opt.fault.rate = rate;
    opt.telemetry = telemetry.get();
    return opt;
  };
  for (const auto& spec : specs) {
    for (const double rate : rates) {
      tiering::check_options(machine_for(spec), options_for(rate),
                             spec.processes);
    }
  }

  std::cout << "Robustness: speedup degradation under injected faults\n"
            << "(" << epochs << " epochs x " << ops_per_epoch
            << " ops; sites: " << sites << "; fault seed " << fault.seed
            << ")\n\n";
  util::TextTable table({"workload", "fault_rate", "speedup", "hitrate",
                         "migrations", "retried", "deferred", "aborted",
                         "no_room", "trace_drop", "scan_abort", "wraps",
                         "pinned"});
  std::unique_ptr<util::CsvWriter> csv;
  if (write_csv) {
    csv = std::make_unique<util::CsvWriter>("robustness.csv");
    csv->write_row(bench::robustness_csv_header());
  }

  bool graceful = true;
  for (const auto& spec : specs) {
    const sim::SimConfig cfg = machine_for(spec);
    double fault_free_speedup = 0.0;
    for (const double rate : rates) {
      tiering::RunnerOptions opt = options_for(rate);

      const std::string rate_tag = util::TextTable::fixed(rate, 2);
      opt.policy = "first-touch";
      opt.telemetry_label = spec.name + "@" + rate_tag + "/first-touch";
      const tiering::RunnerResult base =
          tiering::EndToEndRunner::run(spec, cfg, opt);
      opt.policy = "history";
      opt.telemetry_label = spec.name + "@" + rate_tag + "/history";
      const tiering::RunnerResult tmp =
          tiering::EndToEndRunner::run(spec, cfg, opt);
      const double speedup = static_cast<double>(base.runtime_ns) /
                             static_cast<double>(tmp.runtime_ns);
      if (rate == 0.0) fault_free_speedup = speedup;

      table.add_row({spec.name, util::TextTable::fixed(rate, 2),
                     util::TextTable::fixed(speedup, 3),
                     util::TextTable::percent(tmp.tier1_hitrate),
                     util::TextTable::num(tmp.migrations),
                     util::TextTable::num(tmp.moves.retried),
                     util::TextTable::num(tmp.moves.deferred),
                     util::TextTable::num(tmp.moves.aborted),
                     util::TextTable::num(tmp.moves.no_room),
                     util::TextTable::num(tmp.degrade.trace_dropped),
                     util::TextTable::num(tmp.degrade.scans_aborted),
                     util::TextTable::num(tmp.degrade.hwpc_wraps),
                     util::TextTable::num(tmp.degrade.pinned_epochs)});
      if (csv) {
        for (const auto* r : {&base, &tmp}) {
          csv->write_row(
              {spec.name, util::TextTable::fixed(rate, 3),
               r == &base ? "first-touch" : "history",
               std::to_string(r->runtime_ns / util::kMillisecond),
               util::TextTable::fixed(
                   static_cast<double>(base.runtime_ns) /
                       static_cast<double>(r->runtime_ns),
                   4),
               util::TextTable::fixed(r->tier1_hitrate, 4),
               std::to_string(r->migrations),
               std::to_string(r->moves.retried),
               std::to_string(r->moves.deferred),
               std::to_string(r->moves.aborted),
               std::to_string(r->moves.no_room),
               std::to_string(r->degrade.trace_dropped),
               std::to_string(r->degrade.scans_aborted),
               std::to_string(r->degrade.hwpc_wraps),
               std::to_string(r->degrade.pinned_epochs),
               std::to_string(r->degrade.fallback_epochs)});
        }
      }
      // Graceful-degradation criterion: at rate <= 0.2 the History speedup
      // stays within 30% of its fault-free value.
      if (rate > 0.0 && rate <= 0.2 && fault_free_speedup > 0.0) {
        const double drop = (fault_free_speedup - speedup) / fault_free_speedup;
        if (drop > 0.30) graceful = false;
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nGraceful degradation (<=30% speedup loss at rate 0.2): "
            << (graceful ? "yes" : "NO") << '\n';
  if (csv) std::cout << "Rows written to robustness.csv\n";
  if (telemetry) telemetry->export_final();
  return 0;
}

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
