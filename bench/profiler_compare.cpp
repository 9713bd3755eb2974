/// Profiler comparison — quantifies Section II-B's survey: every method of
/// gaining access visibility, run against the same workloads, reporting
/// what each one sees (pages/epoch), what it costs (overhead as % of
/// runtime, counting injected fault latency), and what a History policy
/// fed by its observations achieves (tier-1 hitrate at a 1/16 capacity
/// ratio).
///
/// Profilers compared:
///   tmp        — the paper's contribution (A-bit + IBS fused)
///   abit-only  — PTE A-bit scanning alone
///   ibs-only   — IBS trace sampling alone
///   lwp        — AMD Lightweight Profiling (user-space ring buffers)
///   autonuma   — Linux-style hint faults (protect + fault per touch)
///   thermostat — BadgerTrap-sampled classification (Agarwal & Wenisch)
///
/// Usage: profiler_compare [--workload=<name>] [--scale=F] [--epochs=N]
///        [--ops-per-epoch=N] [--seed=N] [--time-scale=F]

#include <iostream>

#include "common.hpp"
#include "core/autonuma.hpp"
#include "core/daemon.hpp"
#include "core/thermostat.hpp"
#include "monitors/lwp.hpp"
#include "tiering/hitrate.hpp"
#include "tiering/policies.hpp"
#include "util/table.hpp"

namespace {

using namespace tmprof;

struct ProfilerResult {
  tiering::EpochSeries series;
  util::SimNs overhead_ns = 0;   ///< modeled costs + injected latency
  util::SimNs runtime_ns = 0;
  double pages_per_epoch = 0.0;
};

struct RunContext {
  sim::System system;
  tiering::TruthCollector truth;

  RunContext(const workloads::WorkloadSpec& spec, const sim::SimConfig& cfg,
             std::uint64_t seed)
      : system(cfg), truth(system) {
    tiering::add_spec_processes(system, spec, seed);
    system.add_observer(&truth);
  }
};

void close_epoch(RunContext& ctx, ProfilerResult& result,
                 core::EpochObservation obs, std::uint32_t epoch) {
  tiering::EpochData data;
  data.epoch = epoch;
  data.truth_total = ctx.truth.end_epoch(data.truth, data.new_pages);
  result.pages_per_epoch +=
      static_cast<double>(obs.abit.size() + obs.trace.size());
  data.observed = std::move(obs);
  result.series.epochs.push_back(std::move(data));
}

void finish(RunContext& ctx, ProfilerResult& result, std::uint32_t epochs) {
  result.series.page_sizes = ctx.truth.page_sizes();
  for (const auto& [key, size] : result.series.page_sizes) {
    result.series.footprint_frames += mem::pages_in(size);
  }
  result.runtime_ns = ctx.system.now();
  result.pages_per_epoch /= epochs;
}

double scaled(double time_scale, util::SimNs ns) {
  return static_cast<double>(ns) / time_scale;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  const std::uint32_t epochs = args.get_u32("epochs", 6);
  const std::uint64_t ops_per_epoch = args.get_u64("ops-per-epoch", 500'000);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const double time_scale = args.get_double("time-scale", 20.0);
  const std::vector<workloads::WorkloadSpec> specs =
      bench::selected_specs(args);
  args.reject_unread();

  std::cout << "Profiler comparison (Section II-B survey, measured)\n"
            << "(" << epochs << " epochs x " << ops_per_epoch
            << " ops; hitrate = History policy at tier1 = footprint/16)\n\n";

  for (const auto& spec : specs) {
    const sim::SimConfig cfg = bench::testbed_config(spec.total_bytes);
    util::TextTable table(
        {"profiler", "pages/epoch", "overhead", "hitrate@1/16"});

    auto evaluate = [&](const ProfilerResult& r,
                        core::FusionMode fusion) -> std::vector<std::string> {
      tiering::HitrateOptions opt;
      opt.capacity_frames =
          std::max<std::uint64_t>(1, r.series.footprint_frames / 16);
      opt.fusion = fusion;
      tiering::HistoryPolicy history;
      const double hit =
          tiering::evaluate_policy(history, r.series, opt).overall;
      const double pct = 100.0 * scaled(time_scale, r.overhead_ns) /
                         static_cast<double>(r.runtime_ns);
      return {util::TextTable::fixed(r.pages_per_epoch, 0),
              util::TextTable::fixed(pct, 2) + "%",
              util::TextTable::percent(hit)};
    };

    // --- TMP, A-bit-only and IBS-only share one daemon run --------------
    {
      RunContext ctx(spec, cfg, seed);
      core::DaemonConfig dcfg;
      dcfg.driver.ibs = bench::scaled_ibs(4);
      dcfg.gating_enabled = false;
      dcfg.pid_filter_enabled = false;
      core::TmpDaemon daemon(ctx.system, dcfg);
      ProfilerResult r;
      for (std::uint32_t e = 0; e < epochs; ++e) {
        ctx.system.step(ops_per_epoch);
        core::ProfileSnapshot snap = daemon.tick();
        close_epoch(ctx, r, std::move(snap.observation), e);
      }
      finish(ctx, r, epochs);
      r.overhead_ns = daemon.driver().overhead_ns();
      auto add = [&](const char* name, core::FusionMode fusion,
                     bool share_cost) {
        auto row = evaluate(r, fusion);
        if (share_cost) row[1] = "(shared)";  // same run as the tmp row
        row.insert(row.begin(), name);
        table.add_row(row);
      };
      add("tmp (abit+ibs)", core::FusionMode::Sum, false);
      add("abit-only", core::FusionMode::AbitOnly, true);
      add("ibs-only", core::FusionMode::TraceOnly, true);
    }

    // --- LWP -------------------------------------------------------------
    {
      RunContext ctx(spec, cfg, seed);
      monitors::LwpConfig lwp_cfg;
      lwp_cfg.sample_period = bench::kScaledDefaultPeriod / 4;
      monitors::LwpMonitor lwp(lwp_cfg);
      core::EpochObservation obs;
      lwp.set_drain([&](mem::Pid, std::span<const monitors::TraceSample> s) {
        for (const auto& sample : s) {
          if (!monitors::keeps_trace_sample(sample)) continue;
          const mem::FrameInfo& frame =
              ctx.system.phys().frame(mem::pfn_of(sample.paddr));
          if (!frame.allocated) continue;
          obs.trace[core::PageKey{frame.pid, frame.page_va}] += 1;
        }
      });
      for (sim::Process* proc : ctx.system.processes()) {
        lwp.enable_process(proc->pid());
      }
      ctx.system.add_observer(&lwp);
      ProfilerResult r;
      for (std::uint32_t e = 0; e < epochs; ++e) {
        ctx.system.step(ops_per_epoch);
        lwp.drain_all();
        obs.epoch = e;
        close_epoch(ctx, r, std::move(obs), e);
        obs = core::EpochObservation{};
      }
      ctx.system.remove_observer(&lwp);
      finish(ctx, r, epochs);
      r.overhead_ns = lwp.overhead_ns();
      auto row = evaluate(r, core::FusionMode::TraceOnly);
      row.insert(row.begin(), "lwp");
      table.add_row(row);
    }

    // --- AutoNUMA ----------------------------------------------------------
    {
      RunContext ctx(spec, cfg, seed);
      core::AutoNumaConfig an_cfg;
      an_cfg.window_pages = (spec.total_bytes >> mem::kPageShift) / 4;
      core::AutoNumaProfiler autonuma(ctx.system, an_cfg);
      ProfilerResult r;
      for (std::uint32_t e = 0; e < epochs; ++e) {
        autonuma.protect_pass();
        ctx.system.step(ops_per_epoch);
        close_epoch(ctx, r, autonuma.end_epoch(), e);
      }
      finish(ctx, r, epochs);
      // Hint-fault latency was injected inline; count it as overhead too.
      r.overhead_ns = autonuma.overhead_ns() +
                      autonuma.faults_taken() * core::kAutoNumaFaultCostNs;
      auto row = evaluate(r, core::FusionMode::AbitOnly);
      row.insert(row.begin(), "autonuma");
      table.add_row(row);
    }

    // --- Thermostat ----------------------------------------------------
    {
      RunContext ctx(spec, cfg, seed);
      core::ThermostatConfig th_cfg;
      th_cfg.sample_fraction = 0.1;
      core::ThermostatClassifier thermostat(ctx.system, th_cfg, seed);
      ProfilerResult r;
      for (std::uint32_t e = 0; e < epochs; ++e) {
        thermostat.begin_interval();
        for (int poll = 0; poll < 4; ++poll) {
          ctx.system.step(ops_per_epoch / 4);
          thermostat.refresh();
        }
        close_epoch(ctx, r, thermostat.end_interval(), e);
      }
      finish(ctx, r, epochs);
      r.overhead_ns =
          thermostat.faults_taken() * core::kThermostatFaultCostNs;
      auto row = evaluate(r, core::FusionMode::AbitOnly);
      row.insert(row.begin(), "thermostat(10%)");
      table.add_row(row);
    }

    std::cout << "== " << spec.name << " ==\n";
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Expected shape: TMP matches or beats every single-source "
               "profiler's hitrate at comparable or lower overhead; "
               "AutoNUMA pays a fault per observation; Thermostat sees "
               "only its sampled fraction.\n";
  return 0;
}

int main(int argc, char** argv) {
  return tmprof::bench::run_main(argc, argv, bench_main);
}
