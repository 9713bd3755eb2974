/// Ablation — activity gating (DESIGN.md §5, the paper's Section III-B4
/// optimization 1 and its 20%-of-max threshold). A bursty scenario
/// alternates busy and idle phases; the sweep shows how the gate threshold
/// trades profiling work avoided (scans skipped while idle) against
/// samples missed when activity resumes.
///
/// Usage: ablation_gating [--scale=F] [--bursts=N] [--ops-per-phase=N]
///        [--seed=N]

#include <iostream>

#include "common.hpp"
#include "core/daemon.hpp"
#include "tiering/epoch.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace tmprof;

struct GateOutcome {
  std::uint32_t scans_run = 0;
  std::uint32_t scans_total = 0;
  std::uint64_t pages_observed = 0;
  util::SimNs overhead_ns = 0;
};

GateOutcome run(const workloads::WorkloadSpec& spec, double threshold,
                bool enabled, std::uint32_t bursts,
                std::uint64_t ops_per_phase, std::uint64_t seed) {
  sim::System system(bench::testbed_config(spec.total_bytes));
  tiering::add_spec_processes(system, spec, seed);
  core::DaemonConfig cfg;
  cfg.driver.ibs = bench::scaled_ibs(4);
  cfg.gating_enabled = enabled;
  if (enabled) cfg.gate_threshold = threshold;
  core::TmpDaemon daemon(system, cfg);

  GateOutcome outcome;
  for (std::uint32_t burst = 0; burst < bursts; ++burst) {
    // Busy phase: one tick's worth of work.
    system.step(ops_per_phase);
    core::ProfileSnapshot snap = daemon.tick();
    ++outcome.scans_total;
    outcome.scans_run += snap.abit_ran ? 1 : 0;
    outcome.pages_observed += snap.observation.abit.size();
    // Idle phase: time passes, no memory traffic (service tail, think
    // time). The gate should turn profiling off here.
    for (int idle = 0; idle < 3; ++idle) {
      system.advance_time(50 * util::kMillisecond);
      snap = daemon.tick();
      ++outcome.scans_total;
      outcome.scans_run += snap.abit_ran ? 1 : 0;
      outcome.pages_observed += snap.observation.abit.size();
    }
  }
  outcome.overhead_ns = daemon.driver().overhead_ns();
  return outcome;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const std::uint32_t bursts = args.get_u32("bursts", 5);
  const std::uint64_t ops_per_phase = args.get_u64("ops-per-phase", 400'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const workloads::WorkloadSpec spec = workloads::find_spec(
      "data_caching", bench::scale_from_args(args, 0.25, {"data_caching"}));
  args.reject_unread();

  std::cout << "Ablation: activity-gate threshold on a bursty service\n"
            << "(data_caching; each burst = 1 busy tick + 3 idle ticks)\n\n";
  util::TextTable table({"gate", "scans run", "pages observed",
                         "profiling cost (us)"});

  const GateOutcome off = run(spec, 0.0, false, bursts, ops_per_phase, seed);
  table.add_row({"off",
                 util::TextTable::num(off.scans_run) + "/" +
                     util::TextTable::num(off.scans_total),
                 util::TextTable::num(off.pages_observed),
                 util::TextTable::num(off.overhead_ns / 1000)});
  for (const double threshold : {0.05, 0.2, 0.5}) {
    const GateOutcome g =
        run(spec, threshold, true, bursts, ops_per_phase, seed);
    table.add_row({"thr=" + util::TextTable::fixed(threshold, 2),
                   util::TextTable::num(g.scans_run) + "/" +
                       util::TextTable::num(g.scans_total),
                   util::TextTable::num(g.pages_observed),
                   util::TextTable::num(g.overhead_ns / 1000)});
  }
  table.print(std::cout);
  std::cout << "\nExpected: the paper's 0.2 threshold skips nearly all idle "
               "scans at no visibility loss (idle scans observe nothing "
               "anyway); higher thresholds start skipping busy scans.\n";
  return 0;
}

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
