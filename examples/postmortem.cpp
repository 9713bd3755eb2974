/// Postmortem analysis: record a binary access trace once, then analyze it
/// offline — replay it through IBS models at several sampling rates
/// without re-running the machine, and dump the numa_maps view of the
/// profiler's epoch observation.
///
/// This is the "postmortem" workflow the paper's footnote 2 contrasts with
/// online profiling: full traces are too slow to collect in production,
/// but once you have one (from the simulator, here), every profiling
/// question becomes a cheap replay.
///
/// Build & run:  ./build/examples/postmortem

#include <cstdio>
#include <iostream>
#include <unordered_set>

#include "core/driver.hpp"
#include "core/numa_maps.hpp"
#include "monitors/ibs.hpp"
#include "sim/system.hpp"
#include "sim/trace_io.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

int main() {
  using namespace tmprof;
  const char* trace_path = "/tmp/tmprof_postmortem.trace";

  // --- 1. Record: run data_caching once with a trace writer attached. ---
  const auto spec = workloads::find_spec("data_caching", 0.1);
  sim::SimConfig config;
  config.llc_bytes = 1ULL << 20;
  config.tier1_frames = (spec.total_bytes >> mem::kPageShift) * 5 / 4;
  config.tier2_frames = 2048;
  sim::System system(config);
  for (std::uint32_t i = 0; i < spec.processes; ++i) {
    system.add_process(workloads::make_workload(spec, i, 7));
  }
  // Also run the regular TMP driver so numa_maps has counts to show.
  core::DriverConfig driver_config;
  driver_config.ibs = monitors::IbsConfig::with_period(512);
  core::TmpDriver driver(system, driver_config);
  {
    sim::TraceWriter writer(trace_path);
    system.add_observer(&writer);
    system.step(400'000);
    system.remove_observer(&writer);
    std::cout << "recorded " << writer.records_written()
              << " memory ops to " << trace_path << "\n\n";
  }
  driver.scan_processes({system.processes().front()->pid()});
  const core::EpochObservation observed = driver.end_epoch();

  // --- 2. Replay: what would IBS have seen at other sampling rates? ------
  util::TextTable table({"ibs period (uops)", "samples", "distinct pages"});
  for (const std::uint64_t period : {2048ULL, 512ULL, 128ULL, 32ULL}) {
    monitors::IbsMonitor ibs(monitors::IbsConfig::with_period(period),
                             config.cores);
    std::unordered_set<mem::Pfn> pages;
    ibs.set_drain([&](std::span<const monitors::TraceSample> samples) {
      for (const auto& s : samples) {
        if (monitors::keeps_trace_sample(s)) {
          pages.insert(mem::pfn_of(s.paddr));
        }
      }
    });
    sim::TraceReplayer replayer(trace_path);
    replayer.add_observer(&ibs);
    replayer.replay();
    ibs.drain();
    table.add_row({util::TextTable::num(period),
                   util::TextTable::num(ibs.samples_taken()),
                   util::TextTable::num(pages.size())});
  }
  std::cout << "IBS sampling sweep over the recorded trace:\n";
  table.print(std::cout);

  // --- 3. The numa_maps view of the live run's profile. -----------------
  const mem::Pid first = system.processes().front()->pid();
  std::cout << "\nnuma_maps for pid " << first << " (first 6 lines):\n";
  const std::string maps = core::numa_maps(system, first, observed);
  std::size_t pos = 0;
  for (int line = 0; line < 6 && pos != std::string::npos; ++line) {
    const std::size_t next = maps.find('\n', pos);
    std::cout << maps.substr(pos, next - pos) << '\n';
    pos = next == std::string::npos ? next : next + 1;
  }
  std::remove(trace_path);
  return 0;
}
