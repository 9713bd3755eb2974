/// Fig. 3 — Heatmap of workload memory accesses captured by IBS at the 4x
/// sampling rate: time on X, physical address on Y, sample count as
/// temperature.
///
/// Prints an ASCII rendering per workload and writes the full grid to
/// fig3_<workload>.csv. Expected shapes: GUPS/XSBench fill their address
/// range uniformly; Data-Caching/Web-Serving show persistent hot bands;
/// LULESH/Data-Analytics show diagonal sweep stripes.
///
/// Usage: fig3_heatmap_ibs [--workload=<name>] [--scale=F] [--ops=N]
///        [--seed=N] [--csv=0|1] [--time-bins=N] [--addr-bins=N]

#include <fstream>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "sim/system.hpp"
#include "tiering/epoch.hpp"
#include "tiering/profile.hpp"

static int bench_main(int argc, char** argv) {
  using namespace tmprof;
  const util::ArgParser args(argc, argv);
  const std::uint64_t ops = args.get_u64("ops", 4'000'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const bool write_csv = args.get_bool("csv", true);
  const std::size_t time_bins = bench::count_from_args(args, "time-bins", 64);
  const std::size_t addr_bins = bench::count_from_args(args, "addr-bins", 24);
  const std::vector<workloads::WorkloadSpec> specs =
      bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Fig. 3: access heatmaps from IBS samples (4x rate)\n\n";
  for (const auto& spec : specs) {
    sim::System system(bench::testbed_config(spec.total_bytes));
    tiering::add_spec_processes(system, spec, seed);

    const tiering::AccessHeatmap heatmap = tiering::trace_heatmap(
        system, bench::scaled_ibs(4), seed, ops, time_bins, addr_bins);

    std::cout << "== " << spec.name << " (" << heatmap.observations
              << " beyond-LLC demand-load samples, "
              << (system.now() + 1) / util::kMillisecond << " sim-ms) ==\n"
              << heatmap.grid.render_ascii() << '\n';
    if (write_csv) {
      std::ofstream csv("fig3_" + spec.name + ".csv");
      heatmap.grid.write_csv(csv);
    }
  }
  if (write_csv) std::cout << "Full grids written to fig3_<workload>.csv\n";
  return 0;
}

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
