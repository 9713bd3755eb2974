/// Ablation — epoch length (DESIGN.md §5). The paper's policies are
/// epoch-based "because hotness rankings must be accumulated over a period
/// of time to justify migration cost"; this sweep quantifies the tension:
/// short epochs react faster but rank from fewer samples, long epochs rank
/// well but lag phase changes.
///
/// Usage: ablation_epoch [--workload=<name>] [--scale=F] [--total-ops=N]
///        [--seed=N] [--threads=N]

#include <iostream>

#include "common.hpp"
#include "tiering/hitrate.hpp"
#include "tiering/policies.hpp"
#include "util/table.hpp"

static int bench_main(int argc, char** argv) {
  using namespace tmprof;
  const util::ArgParser args(argc, argv);
  const std::uint64_t total_ops = args.get_u64("total-ops", 4'800'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const std::uint32_t threads = bench::selected_threads(args);
  const std::vector<workloads::WorkloadSpec> specs =
      bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Ablation: epoch length vs History hitrate (total ops fixed "
            << "at " << total_ops << ")\n\n";

  for (const auto& spec : specs) {
    util::TextTable table({"ops/epoch", "epochs", "samples/epoch",
                           "hitrate@1/8", "hitrate@1/32", "promotions"});
    for (const std::uint64_t ops_per_epoch :
         {150'000ULL, 300'000ULL, 600'000ULL, 1'200'000ULL, 2'400'000ULL}) {
      tiering::CollectOptions collect;
      collect.n_epochs =
          static_cast<std::uint32_t>(total_ops / ops_per_epoch);
      if (collect.n_epochs < 2) continue;
      collect.ops_per_epoch = ops_per_epoch;
      collect.seed = seed;
      collect.daemon.driver.ibs = bench::scaled_ibs(4);
      collect.n_threads = threads;
      const tiering::EpochSeries series = tiering::collect_series(
          spec, bench::testbed_config(spec.total_bytes), collect);

      double samples = 0;
      for (const tiering::EpochData& data : series.epochs) {
        for (const auto& [key, count] : data.observed.trace) samples += count;
        for (const auto& [key, count] : data.observed.abit) samples += count;
      }
      samples /= static_cast<double>(series.epochs.size());

      std::vector<std::string> row{
          util::TextTable::num(ops_per_epoch),
          util::TextTable::num(collect.n_epochs),
          util::TextTable::fixed(samples, 0)};
      std::uint64_t promotions = 0;
      for (std::uint64_t div : {8ULL, 32ULL}) {
        tiering::HitrateOptions opt;
        opt.capacity_frames =
            std::max<std::uint64_t>(1, series.footprint_frames / div);
        tiering::HistoryPolicy history;
        const tiering::HitrateResult r =
            tiering::evaluate_policy(history, series, opt);
        row.push_back(util::TextTable::percent(r.overall));
        promotions = r.promotions;
      }
      row.push_back(util::TextTable::num(promotions));
      table.add_row(row);
    }
    std::cout << "== " << spec.name << " ==\n";
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Expected: two forces trade off. Short epochs react faster "
               "(History lags one epoch, and placement updates more often "
               "within the fixed op budget) but rank from fewer samples; "
               "long epochs rank confidently but adapt rarely. Churning "
               "workloads favor short epochs, stationary ones the knee.\n";
  return 0;
}

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
