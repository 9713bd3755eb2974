/// Table IV — Count of pages captured by A-bit and IBS profiling at the
/// default, 4x, and 8x sampling rates, plus the "Both" column (pages with
/// at least a sample from each method within one collection epoch).
///
/// Expected shapes versus the paper:
///  * Huge-footprint random workloads (GUPS, XSBench, Graph-Analytics)
///    show IBS detecting many more pages than A-bit, and the gap grows
///    with the sampling rate.
///  * Cache-friendly service workloads (Web-Serving) show the reverse:
///    A-bit sees the (TLB-visible) working set while beyond-LLC samples
///    are scarce.
///  * "Both" is tiny everywhere.
///  * 4x captures roughly 2-3x more pages than default; 8x adds much less
///    over 4x (the paper's 2.58x / <40% observation).
///
/// Usage: table4_detected_pages [--workload=<name>] [--scale=F]
///        [--epochs=N] [--ops-per-epoch=N] [--seed=N]

#include <iostream>

#include "common.hpp"
#include "sim/system.hpp"
#include "tiering/epoch.hpp"
#include "tiering/profile.hpp"
#include "util/table.hpp"

static int bench_main(int argc, char** argv) {
  using namespace tmprof;
  const util::ArgParser args(argc, argv);
  const std::uint32_t epochs = args.get_u32("epochs", 8);
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 1'000'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const std::vector<workloads::WorkloadSpec> specs =
      bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Table IV: pages captured by A-bit vs IBS profiling\n"
            << "(IBS periods: default=" << bench::kScaledDefaultPeriod
            << " uops, 4x, 8x; " << epochs << " epochs x " << ops_per_epoch
            << " ops)\n\n";
  util::TextTable table({"workload", "abit(def)", "ibs(def)", "both(def)",
                         "abit(4x)", "ibs(4x)", "both(4x)", "abit(8x)",
                         "ibs(8x)", "both(8x)"});

  double sum_4x_gain = 0.0, sum_8x_gain = 0.0;
  int counted = 0;
  for (const auto& spec : specs) {
    // One run measures all three rates: three independent IBS monitors
    // observe the same execution (statistically equivalent to the paper's
    // three runs, and 3x cheaper).
    sim::System system(bench::testbed_config(spec.total_bytes));
    tiering::add_spec_processes(system, spec, seed);
    const tiering::DetectedPages pages = tiering::detect_pages(
        system, bench::paper_rates(), seed, epochs, ops_per_epoch);
    std::vector<std::string> row{spec.name};
    for (std::size_t r = 0; r < 3; ++r) {
      row.push_back(util::TextTable::num(pages.abit.size()));
      row.push_back(util::TextTable::num(pages.trace[r].size()));
      row.push_back(util::TextTable::num(pages.both[r]));
    }
    table.add_row(row);
    const auto ibs = [&](std::size_t r) {
      return static_cast<double>(pages.trace[r].size());
    };
    if (ibs(0) > 0 && ibs(1) > 0) {
      sum_4x_gain += ibs(1) / ibs(0);
      sum_8x_gain += ibs(2) / ibs(1);
      ++counted;
    }
  }
  table.print(std::cout);
  if (counted > 0) {
    std::cout << "\nSampling-rate visibility (paper: 4x = 2.58x over "
                 "default; 8x < 1.4x over 4x):\n"
              << "  mean IBS pages 4x/default = "
              << util::TextTable::fixed(sum_4x_gain / counted, 2) << "x\n"
              << "  mean IBS pages 8x/4x      = "
              << util::TextTable::fixed(sum_8x_gain / counted, 2) << "x\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
