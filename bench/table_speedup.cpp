/// Section VI-C — End-to-end speedup of TMP-driven placement over the
/// NUMA-like first-come-first-allocate baseline, on the paper's scaled
/// tiered configuration (4 GiB + 60 GiB at testbed scale → 64 MiB + 960 MiB
/// here) with 50 µs/page migration cost.
///
/// Two slow-memory models:
///   --model=native      tier 2 pays NVM-class load/store latency (default)
///   --model=badgertrap  the paper's emulation framework: both tiers are
///                       DRAM-fast but tier-2 pages are poisoned and each
///                       faulting access pays 10 µs (+13 µs if hot)
///
/// Expected shape: speedups in the few-to-tens of percent, average around
/// the paper's 1.04x, best case above 1.1x.
///
/// Time-constant scaling: the simulator's epochs are ~20x shorter than the
/// paper's 1-second horizons, so the paper's per-event constants (50 µs
/// migration; 10 µs / +13 µs emulation latencies) are divided by the same
/// factor by default to keep the cost:epoch ratio — override with
/// --time-scale=1 to use the paper's raw constants.
///
/// Usage: table_speedup [--workload=<name>] [--scale=F] [--epochs=N]
///        [--ops-per-epoch=N] [--seed=N] [--model=native|badgertrap]
///        [--with-oracle] [--time-scale=F] [--min-rank=N] [--threads=N]
///        [--admission=off|static|adaptive] [--mig-bandwidth=F]
///        [--mig-burst=F] [--cooldown-epochs=N] [--min-benefit=N]
///        [--min-history=N] [--max-moves=N] [--fault-rate=F]
///        [--fault-seed=N] [--fault-sites=a,b] [--csv=0|1]
///        [--checkpoint-every=N] [--checkpoint-dir=D] [--resume-from=F]
///        [--resume-latest=0|1] [--keep-last=K] [--metrics-out=F]
///        [--trace-out=F] [--telemetry-every=N] [--stream=0|1]
///        [--stream-ring=N]

#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "common.hpp"
#include "tiering/options.hpp"
#include "tiering/runner.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

static int bench_main(int argc, char** argv) {
  using namespace tmprof;
  const util::ArgParser args(argc, argv);
  const std::uint32_t epochs = args.get_u32("epochs", 10);
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 600'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const std::string model = args.get("model", "native");
  const bool with_oracle = args.get_bool("with-oracle", false);
  const double time_scale = args.get_double("time-scale", 20.0);
  const util::FaultConfig fault = bench::fault_from_args(args);
  const util::ckpt::Options checkpoint = bench::checkpoint_from_args(args);
  const bool write_csv = args.get_bool("csv", true);
  const std::unique_ptr<telemetry::Telemetry> telemetry =
      bench::telemetry_from_args(args);
  const tiering::SlowMemoryModel slow_model = tiering::parse_slow_model(model);
  const std::uint64_t min_rank = args.get_u64("min-rank", 3);
  const tiering::AdmissionConfig admission = bench::admission_from_args(args);
  const std::uint32_t threads = bench::selected_threads(args);
  const core::StreamConfig stream = bench::stream_from_args(args);
  const std::vector<workloads::WorkloadSpec> specs =
      bench::selected_specs(args);
  args.reject_unread();

  auto scaled_ns = [time_scale](double paper_us) {
    return static_cast<util::SimNs>(paper_us * 1000.0 / time_scale);
  };
  // One machine and one set of run options per workload; the policy,
  // checkpoint basename and telemetry label vary per run below.
  const auto config_for = [&](const workloads::WorkloadSpec& spec) {
    sim::SimConfig cfg = bench::testbed_config(spec.total_bytes);
    // The paper's emulation testbed: 4 GiB fast + 60 GiB slow, /64 scale.
    cfg.tier1_frames = (64ULL << 20) >> mem::kPageShift;
    cfg.tier2_frames =
        (spec.total_bytes >> mem::kPageShift) * 5 / 4 + (1 << 14);

    tiering::RunnerOptions opt;
    opt.n_epochs = epochs;
    opt.ops_per_epoch = ops_per_epoch;
    opt.seed = seed;
    opt.slow_model = slow_model;
    opt.daemon.driver.ibs = bench::scaled_ibs(4);
    opt.mover.per_page_cost_ns = scaled_ns(50.0);
    opt.mover.min_rank = min_rank;
    opt.mover.admission = admission;
    opt.badgertrap.fault_latency_ns = scaled_ns(10.0);
    opt.badgertrap.hot_extra_latency_ns = scaled_ns(13.0);
    opt.badgertrap.handler_cost_ns = scaled_ns(1.0);
    opt.n_threads = threads;
    opt.daemon.driver.stream = stream;
    opt.fault = fault;
    opt.telemetry = telemetry.get();
    opt.checkpoint = checkpoint;
    return std::pair{cfg, opt};
  };
  // Every configuration is checked before the header and the CSV, so a
  // rejected run leaves an earlier table_speedup.csv in place.
  for (const auto& spec : specs) {
    const auto [cfg, opt] = config_for(spec);
    tiering::check_options(cfg, opt, spec.processes);
  }

  std::cout << "Section VI-C: end-to-end speedup vs first-touch baseline\n"
            << "(model=" << model << ", tier1 = 64 MiB scaled, migration "
            << "cost " << scaled_ns(50.0) << " ns/page = 50 us at paper "
            << "timescale / " << time_scale << ")\n\n";
  util::TextTable table({"workload", "baseline_ms", "tmp_ms", "speedup",
                         "hitrate_base", "hitrate_tmp", "migrations",
                         "retried", "deferred",
                         with_oracle ? "oracle_speedup" : "-"});
  std::unique_ptr<util::CsvWriter> csv;
  if (write_csv) {
    csv = std::make_unique<util::CsvWriter>("table_speedup.csv");
    csv->write_row({"workload", "baseline_ms", "tmp_ms", "speedup",
                    "hitrate_base", "hitrate_tmp", "migrations", "retried",
                    "deferred", "aborted", "no_room"});
  }

  std::vector<double> speedups;
  for (const auto& spec : specs) {
    auto [cfg, opt] = config_for(spec);
    // One basename per (workload, policy) so every run in a shared
    // checkpoint directory keeps its own checkpoint chain.
    opt.policy = "first-touch";
    opt.checkpoint.basename = spec.name + "-first-touch";
    opt.telemetry_label = spec.name + "/first-touch";
    const tiering::RunnerResult base =
        tiering::EndToEndRunner::run(spec, cfg, opt);
    opt.policy = "history";
    opt.checkpoint.basename = spec.name + "-history";
    opt.telemetry_label = spec.name + "/history";
    const tiering::RunnerResult tmp =
        tiering::EndToEndRunner::run(spec, cfg, opt);
    const double speedup = static_cast<double>(base.runtime_ns) /
                           static_cast<double>(tmp.runtime_ns);
    speedups.push_back(speedup);

    std::string oracle_cell = "-";
    if (with_oracle) {
      opt.policy = "oracle";
      opt.checkpoint.basename = spec.name + "-oracle";
      opt.telemetry_label = spec.name + "/oracle";
      const tiering::RunnerResult oracle =
          tiering::EndToEndRunner::run(spec, cfg, opt);
      oracle_cell = util::TextTable::fixed(
          static_cast<double>(base.runtime_ns) /
              static_cast<double>(oracle.runtime_ns),
          3);
    }
    table.add_row({spec.name,
                   util::TextTable::num(base.runtime_ns / util::kMillisecond),
                   util::TextTable::num(tmp.runtime_ns / util::kMillisecond),
                   util::TextTable::fixed(speedup, 3),
                   util::TextTable::percent(base.tier1_hitrate),
                   util::TextTable::percent(tmp.tier1_hitrate),
                   util::TextTable::num(tmp.migrations),
                   util::TextTable::num(tmp.moves.retried),
                   util::TextTable::num(tmp.moves.deferred), oracle_cell});
    if (csv) {
      csv->write_row(
          {spec.name,
           std::to_string(base.runtime_ns / util::kMillisecond),
           std::to_string(tmp.runtime_ns / util::kMillisecond),
           util::TextTable::fixed(speedup, 4),
           util::TextTable::fixed(base.tier1_hitrate, 4),
           util::TextTable::fixed(tmp.tier1_hitrate, 4),
           std::to_string(tmp.migrations), std::to_string(tmp.moves.retried),
           std::to_string(tmp.moves.deferred),
           std::to_string(tmp.moves.aborted),
           std::to_string(tmp.moves.no_room)});
    }
  }
  table.print(std::cout);
  double best = 0.0;
  for (double s : speedups) best = std::max(best, s);
  std::cout << "\nGeomean speedup: "
            << util::TextTable::fixed(util::geomean(speedups), 3)
            << "x  best: " << util::TextTable::fixed(best, 3)
            << "x  (paper: average 1.04x, optimal 1.13x)\n";
  if (csv) std::cout << "Rows written to table_speedup.csv\n";
  if (telemetry) {
    telemetry->export_final();
    std::cout << "Telemetry exported"
              << (telemetry->config().metrics_out.empty()
                      ? ""
                      : " metrics=" + telemetry->config().metrics_out)
              << (telemetry->config().trace_out.empty()
                      ? ""
                      : " trace=" + telemetry->config().trace_out)
              << "\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
