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
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "monitors/abit.hpp"
#include "monitors/ibs.hpp"
#include "sim/system.hpp"
#include "tiering/epoch.hpp"
#include "util/cdf.hpp"
#include "util/table.hpp"

namespace {

using namespace tmprof;

util::EmpiricalCdf to_cdf(
    const std::unordered_map<std::uint64_t, std::uint32_t>& counts) {
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

    const std::array<std::uint64_t, 3> multipliers{1, 4, 8};
    const std::array<std::string, 3> rate_names{"ibs-default", "ibs-4x",
                                                "ibs-8x"};
    std::vector<std::unique_ptr<monitors::IbsMonitor>> ibs;
    std::array<std::unordered_map<std::uint64_t, std::uint32_t>, 3>
        trace_counts;
    for (std::size_t r = 0; r < multipliers.size(); ++r) {
      ibs.push_back(std::make_unique<monitors::IbsMonitor>(
          bench::scaled_ibs(multipliers[r]), system.config().cores,
          seed + r));
      auto& counts = trace_counts[r];
      ibs.back()->set_drain(
          [&counts](std::span<const monitors::TraceSample> batch) {
            for (const auto& s : batch) {
              if (s.is_store || !mem::is_memory(s.source)) continue;
              counts[mem::pfn_of(s.paddr)] += 1;
            }
          });
      system.add_observer(ibs.back().get());
    }
    monitors::AbitScanner scanner{monitors::AbitConfig{}};
    std::unordered_map<std::uint64_t, std::uint32_t> abit_counts;

    for (std::uint32_t e = 0; e < epochs; ++e) {
      system.step(ops_per_epoch);
      for (auto& monitor : ibs) monitor->drain();
      for (sim::Process* proc : system.processes()) {
        scanner.scan(proc->pid(), proc->page_table(),
                     [&](const monitors::AbitSample& sample) {
                       abit_counts[sample.pfn] += 1;
                     });
      }
    }

    util::TextTable table(
        {"curve", "pages", "p25", "p50", "p90", "p99", "max"});
    const util::EmpiricalCdf abit_cdf = to_cdf(abit_counts);
    table.add_row(quantile_row("abit", abit_cdf));
    std::array<util::EmpiricalCdf, 3> trace_cdfs{
        to_cdf(trace_counts[0]), to_cdf(trace_counts[1]),
        to_cdf(trace_counts[2])};
    for (std::size_t r = 0; r < 3; ++r) {
      table.add_row(quantile_row(rate_names[r], trace_cdfs[r]));
    }
    std::cout << "== " << spec.name << " ==\n";
    table.print(std::cout);
    std::cout << '\n';

    if (write_csv) {
      std::ofstream csv("fig5_" + spec.name + ".csv");
      csv << "curve,value,cum_fraction\n";
      auto dump = [&csv](const std::string& label,
                         const util::EmpiricalCdf& cdf) {
        if (cdf.empty()) return;
        for (const auto& [v, f] : cdf.curve(64)) {
          csv << label << ',' << v << ',' << f << '\n';
        }
      };
      dump("abit", abit_cdf);
      for (std::size_t r = 0; r < 3; ++r) dump(rate_names[r], trace_cdfs[r]);
    }
  }
  if (write_csv) std::cout << "Full curves written to fig5_<workload>.csv\n";
  return 0;
}

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
