/// Fig. 4 — Heatmap of workload memory accesses observed through PTE A-bit
/// profiling: each periodic page-table scan contributes one unit of
/// temperature per page found accessed since the previous scan.
///
/// Complementary to Fig. 3: the A-bit view shows the *address-translation*
/// working set (everything TLB misses reach) at page granularity, with no
/// sampling sparsity but also no access-count resolution within a scan.
///
/// Usage: fig4_heatmap_abit [--workload=<name>] [--scale=F] [--epochs=N]
///        [--ops-per-epoch=N] [--seed=N] [--csv=0|1] [--addr-bins=N]

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
  const std::uint32_t epochs = bench::count_from_args(args, "epochs", 48);
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 100'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const bool write_csv = args.get_bool("csv", true);
  const std::size_t addr_bins = bench::count_from_args(args, "addr-bins", 24);
  const std::vector<workloads::WorkloadSpec> specs =
      bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Fig. 4: access heatmaps from A-bit scans (one scan per "
            << ops_per_epoch << "-op interval)\n\n";
  for (const auto& spec : specs) {
    sim::System system(bench::testbed_config(spec.total_bytes));
    tiering::add_spec_processes(system, spec, seed);
    const tiering::AccessHeatmap heatmap =
        tiering::abit_heatmap(system, epochs, ops_per_epoch, addr_bins);
    std::cout << "== " << spec.name << " (" << heatmap.observations
              << " page observations over " << epochs << " scans) ==\n"
              << heatmap.grid.render_ascii() << '\n';
    if (write_csv) {
      std::ofstream csv("fig4_" + spec.name + ".csv");
      heatmap.grid.write_csv(csv);
    }
  }
  if (write_csv) std::cout << "Full grids written to fig4_<workload>.csv\n";
  return 0;
}

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
