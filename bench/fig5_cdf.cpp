/// Fig. 5 — CDFs of per-page access observations for each workload under
/// each profiling technique and sampling rate: A-bit, IBS default, IBS 4x,
/// IBS 8x.
///
/// Prints quantile rows per curve and writes full curves to
/// fig5_<workload>.csv. Expected shapes: IBS curves shift right with the
/// sampling rate (more samples per detected page); A-bit curves saturate
/// near the scan count for hot pages; on cache-friendly workloads the A-bit
/// curve dominates (more pages, higher counts) while trace curves collapse.
///
/// Usage: fig5_cdf [--workload=<name>] [--scale=F] [--epochs=N]
///        [--ops-per-epoch=N] [--seed=N] [--csv=0|1]

#include <array>
#include <fstream>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "sim/system.hpp"
#include "tiering/epoch.hpp"
#include "tiering/profile.hpp"
#include "util/cdf.hpp"
#include "util/table.hpp"

namespace {

using namespace tmprof;

util::EmpiricalCdf to_cdf(const tiering::FrameCounts& counts) {
  std::vector<std::uint64_t> values;
  values.reserve(counts.size());
  for (const auto& [page, count] : counts) values.push_back(count);
  return util::EmpiricalCdf(std::move(values));
}

std::vector<std::string> quantile_row(const std::string& label,
                                      const util::EmpiricalCdf& cdf) {
  if (cdf.empty()) {
    return {label, "0", "-", "-", "-", "-", "-"};
  }
  return {label,
          util::TextTable::num(cdf.size()),
          util::TextTable::num(cdf.quantile(0.25)),
          util::TextTable::num(cdf.quantile(0.5)),
          util::TextTable::num(cdf.quantile(0.9)),
          util::TextTable::num(cdf.quantile(0.99)),
          util::TextTable::num(cdf.max())};
}

}  // namespace

static int bench_main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const std::uint32_t epochs = args.get_u32("epochs", 8);
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 1'000'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const bool write_csv = args.get_bool("csv", true);
  const std::vector<workloads::WorkloadSpec> specs =
      bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Fig. 5: CDFs of per-page observation counts\n"
            << "(columns: detected pages, then counts at p25/p50/p90/p99/"
               "max)\n\n";

  for (const auto& spec : specs) {
    sim::System system(bench::testbed_config(spec.total_bytes));
    tiering::add_spec_processes(system, spec, seed);

    const tiering::DetectedPages pages = tiering::detect_pages(
        system, bench::paper_rates(), seed, epochs, ops_per_epoch);
    const std::array<std::pair<std::string, util::EmpiricalCdf>, 4> curves{{
        {"abit", to_cdf(pages.abit)},
        {"ibs-default", to_cdf(pages.trace[0])},
        {"ibs-4x", to_cdf(pages.trace[1])},
        {"ibs-8x", to_cdf(pages.trace[2])},
    }};

    util::TextTable table(
        {"curve", "pages", "p25", "p50", "p90", "p99", "max"});
    for (const auto& [label, cdf] : curves) {
      table.add_row(quantile_row(label, cdf));
    }
    std::cout << "== " << spec.name << " ==\n";
    table.print(std::cout);
    std::cout << '\n';

    if (write_csv) {
      std::ofstream csv("fig5_" + spec.name + ".csv");
      csv << "curve,value,cum_fraction\n";
      for (const auto& [label, cdf] : curves) {
        for (const auto& [v, f] : cdf.curve(64)) {
          csv << label << ',' << v << ',' << f << '\n';
        }
      }
    }
  }
  if (write_csv) std::cout << "Full curves written to fig5_<workload>.csv\n";
  return 0;
}

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
