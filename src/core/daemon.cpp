#include "core/daemon.hpp"

#include <algorithm>
#include <sstream>

#include "pmu/events.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"
#include "util/ckpt.hpp"
#include "util/log.hpp"

namespace tmprof::core {

TmpDaemon::TmpDaemon(sim::System& system, const DaemonConfig& config)
    : system_(system),
      config_(config),
      driver_(system, config.driver),
      abit_gate_(config.gate_threshold),
      trace_gate_(config.gate_threshold),
      fault_(config.fault) {
  // Program the cheap always-on counters the daemon polls (within the PMU's
  // kRegisters, so each reads its exact count).
  system_.pmu().program_all(
      {pmu::Event::LlcMiss, pmu::Event::DtlbWalk, pmu::Event::RetiredUops});
  // The driver consults the daemon's injector for its own fault sites
  // (trace-buffer overflow, scan abort), so one seed covers both layers.
  driver_.set_fault_injector(&fault_);
}

void TmpDaemon::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  driver_.set_telemetry(telemetry);
  if (telemetry == nullptr) {
    t_ticks_ = {};
    t_scans_run_ = {};
    t_abit_gated_ = {};
    t_trace_gated_ = {};
    t_hwpc_wraps_ = {};
    t_rescaled_ = {};
    t_fallback_ = {};
    t_qos_fallback_ = {};
    t_pinned_ = {};
    t_tracked_pids_ = {};
    t_ladder_state_ = {};
    return;
  }
  telemetry::MetricsRegistry& m = telemetry->metrics();
  t_ticks_ = m.counter("daemon_ticks_total");
  t_scans_run_ = m.counter("daemon_scans_run_total");
  t_abit_gated_ = m.counter("daemon_abit_gated_total");
  t_trace_gated_ = m.counter("daemon_trace_gated_total");
  t_hwpc_wraps_ = m.counter("daemon_hwpc_wraps_total");
  t_rescaled_ = m.counter("daemon_rescaled_epochs_total");
  t_fallback_ = m.counter("daemon_fallback_epochs_total");
  t_qos_fallback_ = m.counter("daemon_qos_fallback_epochs_total");
  t_pinned_ = m.counter("daemon_pinned_epochs_total");
  t_tracked_pids_ = m.gauge("daemon_tracked_pids");
  t_ladder_state_ = m.gauge("daemon_ladder_state");
}

ProfileSnapshot TmpDaemon::tick() {
  ProfileSnapshot snapshot;
  tick_into(snapshot);
  return snapshot;
}

void TmpDaemon::tick_into(ProfileSnapshot& snapshot) {
  const std::uint64_t seq = tick_seq_++;
  const util::SimNs tick_begin = system_.now();
  t_ticks_.inc();

  // 1. Read the HWPC miss counters accumulated over the elapsed period.
  // Injected wraps truncate the cumulative reading to its low bits, the way
  // a narrow hardware counter overflows between polls.
  std::uint64_t llc_miss = system_.pmu().read_total(pmu::Event::LlcMiss);
  std::uint64_t tlb_walk = system_.pmu().read_total(pmu::Event::DtlbWalk);
  if (fault_.enabled(util::FaultSite::HwpcWrap)) {
    if (fault_.fire(util::FaultSite::HwpcWrap, util::fault_key(0x11c, seq))) {
      llc_miss &= 0xfff;
    }
    if (fault_.fire(util::FaultSite::HwpcWrap, util::fault_key(0x71b, seq))) {
      tlb_walk &= 0xfff;
    }
  }
  // A reading below the previous one can only be a wrap: hold the previous
  // delta (the gates keep their last sane view) and leave `last` untouched
  // so the next honest reading resynchronizes.
  const auto delta_of = [this](std::uint64_t reading, std::uint64_t& last,
                               std::uint64_t& prev_delta, const char* name) {
    if (reading < last) {
      ++degrade_.hwpc_wraps;
      t_hwpc_wraps_.inc();
      TMPROF_LOG_WARN << "tmp-daemon: " << name << " counter wrapped ("
                      << reading << " < " << last
                      << "); holding previous delta";
      return prev_delta;
    }
    const std::uint64_t delta = reading - last;
    last = reading;
    prev_delta = delta;
    return delta;
  };
  const std::uint64_t llc_delta =
      delta_of(llc_miss, last_llc_miss_, prev_llc_delta_, "llc-miss");
  const std::uint64_t tlb_delta =
      delta_of(tlb_walk, last_tlb_walk_, prev_tlb_delta_, "dtlb-walk");

  // 2. Gate each expensive mechanism on its cheap proxy counter.
  bool run_abit = true;
  bool run_trace = true;
  if (config_.gating_enabled) {
    run_abit = abit_gate_.update(tlb_delta);
    run_trace = trace_gate_.update(llc_delta);
  }
  driver_.set_trace_enabled(run_trace);

  // 3. Re-evaluate the PID filter and scan the survivors' page tables.
  monitors::AbitScanResult scan{};
  if (config_.pid_filter_enabled) {
    tracked_pids_ = pid_filter_.select(system_.processes());
  } else {
    tracked_pids_.clear();
    for (const sim::Process* p : system_.processes()) {
      tracked_pids_.push_back(p->pid());
    }
  }
  if (run_abit) {
    scan = driver_.scan_processes(tracked_pids_);
    t_scans_run_.inc();
  } else {
    t_abit_gated_.inc();
  }
  if (!run_trace) t_trace_gated_.inc();
  t_tracked_pids_.set(tracked_pids_.size());
  if (config_.charge_overhead) {
    system_.advance_time(scan.cost_ns);
  }

  // 4. Close the epoch and publish the fused ranking. `snapshot` may carry
  // a previous epoch: end_epoch_into recycles its observation buffers, and
  // the sticky flags are reset here.
  driver_.end_epoch_into(snapshot.observation);
  snapshot.epoch = snapshot.observation.epoch;
  snapshot.abit_ran = run_abit;
  snapshot.trace_ran = run_trace;
  snapshot.abit_aborted = scan.aborted;
  snapshot.pinned = false;
  snapshot.trace_fallback = false;
  snapshot.qos_fallback = false;
  degrade_.scans_aborted = driver_.scans_aborted();
  degrade_.trace_dropped = driver_.trace_samples_dropped();

  // 5. Degradation ladder for trace-sample loss: a little loss rescales the
  //    surviving samples (they remain an unbiased subsample); heavy loss
  //    abandons the trace source for this epoch and ranks on A bits alone.
  {
    const std::uint64_t kept = driver_.trace_samples_kept();
    const std::uint64_t dropped = driver_.trace_samples_dropped();
    const std::uint64_t kept_delta = kept - last_trace_kept_;
    const std::uint64_t dropped_delta = dropped - last_trace_dropped_;
    last_trace_kept_ = kept;
    last_trace_dropped_ = dropped;
    const std::uint64_t total = kept_delta + dropped_delta;
    const double loss =
        total == 0 ? 0.0
                   : static_cast<double>(dropped_delta) /
                         static_cast<double>(total);
    snapshot.trace_loss = loss;
    snapshot.trace_dropped = dropped_delta;

    FusionMode fusion = config_.fusion;
    double weight = 1.0;  // the trace signal's weight in the ranking
    if (loss >= kTraceFallbackThreshold && fusion != FusionMode::AbitOnly) {
      if (qos_is_batch_ && loss < kQosFullFallbackThreshold &&
          (fusion == FusionMode::Sum || fusion == FusionMode::Weighted)) {
        // QoS-selective rung (docs/CONSOLIDATION.md): batch tenants shed
        // their trace signal first — their pages get re-ranked on A bits
        // alone below — while latency tenants keep the rescaled mixed
        // ranking until loss reaches kQosFullFallbackThreshold.
        weight = 1.0 / (1.0 - loss);
        fusion = FusionMode::Weighted;
        snapshot.qos_fallback = true;
        ++degrade_.qos_fallback_epochs;
        t_qos_fallback_.inc();
        TMPROF_LOG_WARN << "tmp-daemon: epoch " << snapshot.epoch << " lost "
                        << dropped_delta << "/" << total
                        << " trace samples; degrading batch tenants to "
                           "abit-only ranking";
      } else {
        fusion = FusionMode::AbitOnly;
        snapshot.trace_fallback = true;
        ++degrade_.fallback_epochs;
        t_fallback_.inc();
        TMPROF_LOG_WARN << "tmp-daemon: epoch " << snapshot.epoch << " lost "
                        << dropped_delta << "/" << total
                        << " trace samples; falling back to abit-only fusion";
      }
    } else if (loss > kTraceRescaleThreshold &&
               (fusion == FusionMode::Sum || fusion == FusionMode::Weighted)) {
      // Rescaling only changes a *mixed* ranking; Max and TraceOnly orders
      // are invariant under a constant trace factor, so they either ride
      // out the loss or (above) fall back.
      weight = 1.0 / (1.0 - loss);
      fusion = FusionMode::Weighted;
      ++degrade_.rescaled_epochs;
      t_rescaled_.inc();
    }
    const FusionParams fusion_params{fusion, weight, config_.devmon_weight};
    build_ranking_into(snapshot.observation, fusion_params, ranking_scratch_,
                       snapshot.ranking);
    if (snapshot.qos_fallback) {
      // Demote batch pages to their A-bit evidence and restore the total
      // order.
      for (PageRank& pr : snapshot.ranking) {
        if (qos_is_batch_(pr.key.pid)) {
          pr.rank = pr.abit;
          pr.trace = 0;
        }
      }
      std::sort(snapshot.ranking.begin(), snapshot.ranking.end(),
                RankOrder{});
    }
  }

  // 6. Watchdog: consecutive aborted/empty scans mean the A-bit view has
  //    gone dark. Serve the last good ranking (pinned, logged) rather than
  //    an empty or badly degraded one; recovery is automatic on the next
  //    good scan.
  const bool bad_scan =
      snapshot.abit_aborted || (run_abit && snapshot.observation.abit.empty());
  if (bad_scan) {
    ++bad_scans_;
  } else if (run_abit) {
    bad_scans_ = 0;
  }
  const bool good = !snapshot.abit_aborted && !snapshot.ranking.empty();
  if (good) {
    last_good_ranking_ = snapshot.ranking;
  } else if (bad_scans_ >= kWatchdogThreshold &&
             !last_good_ranking_.empty()) {
    snapshot.ranking = last_good_ranking_;
    snapshot.pinned = true;
    ++degrade_.pinned_epochs;
    t_pinned_.inc();
    TMPROF_LOG_WARN << "tmp-daemon: " << bad_scans_
                    << " consecutive bad scans; pinning ranking from last "
                       "good epoch";
  }
  // Ladder position after this tick: 0 normal, 1 rescaled, 2 fallback,
  // 3 pinned (the most degraded state wins).
  if (telemetry_ != nullptr) {
    std::uint64_t ladder = 0;
    if (snapshot.pinned) ladder = 3;
    else if (snapshot.trace_fallback) ladder = 2;
    else if (snapshot.qos_fallback) ladder = 2;
    else if (snapshot.trace_loss > kTraceRescaleThreshold) ladder = 1;
    t_ladder_state_.set(ladder);
    telemetry_->span("daemon.tick", tick_begin, system_.now(),
                     telemetry::kTidDaemon);
  }
}

std::string TmpDaemon::dump(const ProfileSnapshot& snapshot,
                            std::size_t top_n) {
  std::ostringstream os;
  os << "epoch=" << snapshot.epoch << " pages=" << snapshot.ranking.size()
     << " abit_ran=" << (snapshot.abit_ran ? 1 : 0)
     << " trace_ran=" << (snapshot.trace_ran ? 1 : 0) << '\n';
  std::size_t shown = 0;
  for (const PageRank& pr : snapshot.ranking) {
    if (shown++ >= top_n) break;
    os << std::hex << "0x" << pr.key.page_va << std::dec
       << " pid=" << pr.key.pid << " rank=" << pr.rank
       << " abit=" << pr.abit << " trace=" << pr.trace << '\n';
  }
  return os.str();
}

void TmpDaemon::save_state(util::ckpt::Writer& w) const {
  driver_.save_state(w);
  abit_gate_.save_state(w);
  trace_gate_.save_state(w);
  pid_filter_.save_state(w);
  w.put_u64(tracked_pids_.size());
  for (const mem::Pid pid : tracked_pids_) w.put_u64(pid);
  fault_.save_state(w);
  w.put_u64(degrade_.hwpc_wraps);
  w.put_u64(degrade_.scans_aborted);
  w.put_u64(degrade_.trace_dropped);
  w.put_u64(degrade_.rescaled_epochs);
  w.put_u64(degrade_.fallback_epochs);
  w.put_u64(degrade_.pinned_epochs);
  w.put_u64(degrade_.qos_fallback_epochs);
  w.put_u64(last_llc_miss_);
  w.put_u64(last_tlb_walk_);
  w.put_u64(prev_llc_delta_);
  w.put_u64(prev_tlb_delta_);
  w.put_u64(last_trace_kept_);
  w.put_u64(last_trace_dropped_);
  w.put_u32(bad_scans_);
  save_ranking(w, last_good_ranking_);
  w.put_u64(tick_seq_);
}

void TmpDaemon::load_state(util::ckpt::Reader& r) {
  driver_.load_state(r);
  abit_gate_.load_state(r);
  trace_gate_.load_state(r);
  pid_filter_.load_state(r);
  tracked_pids_.clear();
  const std::uint64_t tracked = r.get_u64();
  tracked_pids_.reserve(tracked);
  for (std::uint64_t i = 0; i < tracked; ++i) {
    tracked_pids_.push_back(static_cast<mem::Pid>(r.get_u64()));
  }
  fault_.load_state(r);
  degrade_.hwpc_wraps = r.get_u64();
  degrade_.scans_aborted = r.get_u64();
  degrade_.trace_dropped = r.get_u64();
  degrade_.rescaled_epochs = r.get_u64();
  degrade_.fallback_epochs = r.get_u64();
  degrade_.pinned_epochs = r.get_u64();
  degrade_.qos_fallback_epochs = r.get_u64();
  last_llc_miss_ = r.get_u64();
  last_tlb_walk_ = r.get_u64();
  prev_llc_delta_ = r.get_u64();
  prev_tlb_delta_ = r.get_u64();
  last_trace_kept_ = r.get_u64();
  last_trace_dropped_ = r.get_u64();
  bad_scans_ = r.get_u32();
  load_ranking(r, last_good_ranking_);
  tick_seq_ = r.get_u64();
}

}  // namespace tmprof::core
