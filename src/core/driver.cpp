#include "core/driver.hpp"

#include <algorithm>
#include <chrono>

#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::core {

TmpDriver::TmpDriver(sim::System& system, const DriverConfig& config)
    : system_(system),
      config_(config),
      scanner_(config.abit),
      store_(system.phys().total_frames()),
      cur_abit_(config.hotness),
      cur_trace_(config.hotness),
      cur_writes_(config.hotness) {
  if (config_.backend == TraceBackend::Ibs) {
    ibs_ = std::make_unique<monitors::IbsMonitor>(config_.ibs,
                                                  system.config().cores);
    ibs_->set_drain([this](std::span<const monitors::TraceSample> samples) {
      on_trace(samples);
    });
    // The sharded engine runs each core's callbacks on a worker thread;
    // per-core sample lanes defer the (driver-mutating) drain to the epoch
    // barrier, keeping the monitor shard-safe.
    if (system.config().sharded_engine) ibs_->enable_sharded();
  } else {
    pebs_ = std::make_unique<monitors::PebsMonitor>(config_.pebs,
                                                    system.config().cores);
    pebs_->set_drain([this](std::span<const monitors::TraceSample> samples) {
      on_trace(samples);
    });
    if (system.config().sharded_engine) pebs_->enable_sharded();
  }
  if (config_.use_pml) {
    pml_ = std::make_unique<monitors::PmlMonitor>(config_.pml);
    pml_->set_drain([this](std::span<const mem::PhysAddr> addresses) {
      on_pml(addresses);
    });
    system_.add_observer(pml_.get());
  }
  if (config_.devmon.enabled) {
    devmon_ = std::make_unique<monitors::DevMonitor>(
        config_.devmon, system.phys(), system.config().cores);
    devmon_->set_drain(
        [this](std::span<const monitors::DevMonReportEntry> report) {
          on_devmon(report);
        });
    // Per-core lanes make the monitor shard-safe; the fold into the device
    // arrays happens at the epoch barrier on the main thread.
    if (system.config().sharded_engine) devmon_->enable_sharded();
    system_.add_observer(devmon_.get());
  }
  if (config_.stream.enabled) {
    // The whole point is overlapping consumption with shard execution; the
    // per-lane record identity also leans on the monitors' per-core lanes.
    TMPROF_EXPECTS(system.config().sharded_engine);
    // Conservative-update sketches are add-order sensitive; the pump's
    // scheduling-dependent interleaving would break bitwise invariance.
    TMPROF_EXPECTS(config_.hotness.mode == HotnessMode::Exact);
    stream_ = std::make_unique<StreamTransport>(config_.stream,
                                                system.config().cores);
    std::vector<util::SpscRing<monitors::StreamRecord>*> rings;
    rings.reserve(stream_->trace_lanes());
    for (std::uint32_t c = 0; c < stream_->trace_lanes(); ++c) {
      rings.push_back(&stream_->ring(c));
    }
    // Ring-full overflow flushes through the same fold as ring records; the
    // spill runs on the main thread at drain time, so this is shard-safe.
    auto spill = [this](std::span<const monitors::StreamRecord> records) {
      for (const monitors::StreamRecord& rec : records) consume_record(rec);
    };
    if (ibs_) {
      ibs_->enable_streaming(std::move(rings), spill);
    } else {
      pebs_->enable_streaming(std::move(rings), spill);
    }
    system_.set_step_pump([this] { pump_stream(); });
  }
  scanner_.set_shootdown(
      [this](mem::Pid pid, mem::VirtAddr page_va, mem::PageSize size) {
        return system_.shootdown(pid, page_va, size);
      });
  set_trace_enabled(true);
}

TmpDriver::~TmpDriver() {
  if (stream_) system_.set_step_pump(nullptr);
  set_trace_enabled(false);
  if (pml_) system_.remove_observer(pml_.get());
  if (devmon_) system_.remove_observer(devmon_.get());
}

void TmpDriver::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry == nullptr) {
    t_kept_ = {};
    t_dropped_ = {};
    t_scans_aborted_ = {};
    t_abit_ptes_ = {};
    t_abit_pages_ = {};
    t_mon_samples_ = {};
    t_mon_tags_lost_ = {};
    t_mon_interrupts_ = {};
    t_devmon_observed_ = {};
    t_devmon_reported_ = {};
    t_devmon_evictions_ = {};
    t_devmon_occupied_.clear();
    t_stream_depth_ = {};
    t_stream_drops_ = {};
    t_stream_seal_ns_ = {};
    t_stream_records_ = {};
    return;
  }
  telemetry::MetricsRegistry& m = telemetry->metrics();
  t_kept_ = m.counter("driver_trace_samples_kept_total");
  t_dropped_ = m.counter("driver_trace_samples_dropped_total");
  t_scans_aborted_ = m.counter("driver_abit_scans_aborted_total");
  t_abit_ptes_ = m.counter("driver_abit_ptes_visited_total");
  t_abit_pages_ = m.counter("driver_abit_pages_accessed_total");
  t_mon_samples_ = m.gauge("monitor_trace_samples_taken");
  t_mon_tags_lost_ = m.gauge("monitor_trace_tags_lost");
  t_mon_interrupts_ = m.gauge("monitor_trace_interrupts");
  t_devmon_occupied_.clear();
  if (devmon_) {
    t_devmon_observed_ = m.gauge("devmon_accesses_observed");
    t_devmon_reported_ = m.gauge("devmon_entries_reported");
    t_devmon_evictions_ = m.gauge("devmon_slot_evictions");
    // One occupancy gauge per device (tiers 1..N-1); the tier index keeps
    // the name inside the exporter's [a-z0-9_] charset.
    const std::size_t tiers = system_.phys().tier_count();
    for (std::size_t t = 1; t < tiers; ++t) {
      t_devmon_occupied_.push_back(
          m.gauge("devmon_tier" + std::to_string(t) + "_occupied"));
    }
  }
  if (stream_) {
    // Registered only when streaming is on so off-mode exports stay
    // byte-identical to the pre-streaming format.
    t_stream_depth_ = m.gauge("stream_ring_depth");
    t_stream_drops_ = m.counter("stream_ring_drops_total");
    t_stream_seal_ns_ = m.gauge("stream_seal_ns");
    t_stream_records_ = m.counter("stream_records_total");
  }
}

void TmpDriver::set_trace_enabled(bool enabled) {
  if (enabled == trace_enabled_) return;
  monitors::AccessObserver* obs =
      ibs_ ? static_cast<monitors::AccessObserver*>(ibs_.get())
           : static_cast<monitors::AccessObserver*>(pebs_.get());
  if (enabled) system_.add_observer(obs);
  else system_.remove_observer(obs);
  trace_enabled_ = enabled;
}

void TmpDriver::on_trace(std::span<const monitors::TraceSample> samples) {
  for (const monitors::TraceSample& s : samples) {
    if (config_.trace_loads_only && s.is_store) continue;
    if (config_.trace_memory_only && !mem::is_memory(s.source)) continue;
    const mem::Pfn pfn = mem::pfn_of(s.paddr);
    const mem::FrameInfo& frame = system_.phys().frame(pfn);
    if (!frame.allocated) continue;  // raced with a free; drop
    // phys_to_page(): aggregate into the mapping's descriptor.
    const PageKey key{frame.pid, frame.page_va};
    if (fault_ != nullptr && fault_->enabled(util::FaultSite::TraceOverflow)) {
      // Keyed on (epoch, page, occurrence): whether the k-th sample of a
      // page is dropped this epoch does not depend on when lanes drain.
      const std::uint32_t occ = ++overflow_seen_[key];
      const std::uint64_t fkey = util::fault_key(
          epoch_ | (static_cast<std::uint64_t>(occ) << 32), key.page_va,
          key.pid);
      if (fault_->fire(util::FaultSite::TraceOverflow, fkey)) {
        ++trace_samples_dropped_;
        t_dropped_.inc();
        continue;
      }
    }
    cur_trace_.add(key);
    store_.record_trace(pfn, epoch_);
    ++trace_samples_kept_;
    t_kept_.inc();
  }
}

void TmpDriver::consume_record(const monitors::StreamRecord& rec) {
  ++stream_records_;
  switch (rec.kind) {
    case monitors::StreamKind::Trace: {
      if (config_.trace_loads_only && monitors::trace_record_is_store(rec)) {
        return;
      }
      if (config_.trace_memory_only &&
          !mem::is_memory(monitors::trace_record_source(rec))) {
        return;
      }
      const mem::Pfn pfn = mem::pfn_of(rec.a);
      const mem::FrameInfo& frame = system_.phys().frame(pfn);
      if (!frame.allocated) return;
      const PageKey key{frame.pid, frame.page_va};
      if (fault_ != nullptr &&
          fault_->enabled(util::FaultSite::TraceOverflow)) {
        // The barrier path keys overflow drops by per-page occurrence; that
        // index would depend on how far the pump has run. Streaming keys on
        // the record's own (epoch, lane, seq) identity — fixed at encode
        // time, so the drop set is invariant to consumption scheduling.
        const std::uint64_t fkey = util::fault_key(
            epoch_ | (static_cast<std::uint64_t>(rec.seq) << 32),
            0x57a3 ^ (static_cast<std::uint64_t>(rec.lane) << 16),
            key.page_va);
        if (fault_->fire(util::FaultSite::TraceOverflow, fkey)) {
          ++trace_samples_dropped_;
          t_dropped_.inc();
          return;
        }
      }
      cur_trace_.add(key);
      store_.record_trace(pfn, epoch_);
      ++trace_samples_kept_;
      t_kept_.inc();
      return;
    }
    case monitors::StreamKind::Abit: {
      const PageKey key{static_cast<mem::Pid>(rec.c), rec.a};
      cur_abit_.add(key);
      store_.record_abit(rec.b, epoch_);
      return;
    }
    case monitors::StreamKind::Dev: {
      // phys_to_page(), as in on_devmon: a frame freed since it was counted
      // no longer names a page on this device.
      const mem::FrameInfo& frame = system_.phys().frame(rec.a);
      if (!frame.allocated) return;
      const PageKey key{frame.pid, frame.page_va};
      cur_devmon_[key] += static_cast<std::uint32_t>(rec.b);
      return;
    }
  }
}

void TmpDriver::pump_stream() {
  StreamTransport& transport = *stream_;
  for (std::uint32_t lane = 0; lane < transport.lanes(); ++lane) {
    transport.ring(lane).drain(
        [this](const monitors::StreamRecord& rec) { consume_record(rec); });
  }
}

monitors::AbitScanResult TmpDriver::scan_processes(
    const std::vector<mem::Pid>& pids) {
  monitors::AbitScanResult total;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    const mem::Pid pid = pids[i];
    if (fault_ != nullptr &&
        fault_->fire(util::FaultSite::AbitAbort,
                     util::fault_key(0xab17, epoch_, i))) {
      // Mid-walk abort: this and later processes keep their A bits set and
      // are picked up (with inflated counts) by the next successful scan.
      total.aborted = true;
      ++scans_aborted_;
      t_scans_aborted_.inc();
      break;
    }
    sim::Process& proc = system_.process(pid);
    const monitors::AbitScanResult r = scanner_.scan_fn(
        pid, proc.page_table(), [&](const monitors::AbitSample& sample) {
          if (stream_) {
            // The scanner runs on the consumer's own thread, so a full ring
            // just means "fold inline" — same result, no spill vector.
            monitors::StreamRecord rec;
            rec.a = sample.page_va;
            rec.b = sample.pfn;
            rec.c = pid;
            rec.seq = abit_seq_++;
            rec.lane = static_cast<std::uint16_t>(stream_->abit_lane());
            rec.kind = monitors::StreamKind::Abit;
            if (!stream_->ring(stream_->abit_lane()).try_push(rec)) {
              consume_record(rec);
            }
            return;
          }
          const PageKey key{pid, sample.page_va};
          cur_abit_.add(key);
          store_.record_abit(sample.pfn, epoch_);
        });
    total.ptes_visited += r.ptes_visited;
    total.pages_accessed += r.pages_accessed;
    total.shootdowns += r.shootdowns;
    total.cost_ns += r.cost_ns;
  }
  t_abit_ptes_.add(total.ptes_visited);
  t_abit_pages_.add(total.pages_accessed);
  if (telemetry_ != nullptr && total.cost_ns > 0) {
    // The caller charges cost_ns to the clock after we return; span it on
    // the daemon track starting at the current sim time.
    telemetry_->span("abit.scan", system_.now(), system_.now() + total.cost_ns,
                     telemetry::kTidDaemon);
  }
  return total;
}

void TmpDriver::on_pml(std::span<const mem::PhysAddr> addresses) {
  for (const mem::PhysAddr paddr : addresses) {
    const mem::Pfn pfn = mem::pfn_of(paddr);
    const mem::FrameInfo& frame = system_.phys().frame(pfn);
    if (!frame.allocated) continue;
    cur_writes_.add(PageKey{frame.pid, frame.page_va});
  }
}

void TmpDriver::on_devmon(
    std::span<const monitors::DevMonReportEntry> report) {
  if (stream_) {
    // Route the report through the device lane so every sample source
    // reaches the epoch through the same transport and record accounting.
    // Producer and consumer are both the main thread here; ring-full folds
    // inline.
    for (const monitors::DevMonReportEntry& e : report) {
      monitors::StreamRecord rec;
      rec.a = e.pfn;
      rec.b = e.count;
      rec.seq = dev_seq_++;
      rec.lane = static_cast<std::uint16_t>(stream_->dev_lane());
      rec.kind = monitors::StreamKind::Dev;
      if (!stream_->ring(stream_->dev_lane()).try_push(rec)) {
        consume_record(rec);
      }
    }
    return;
  }
  for (const monitors::DevMonReportEntry& e : report) {
    // phys_to_page(): the device counts physical frames; the driver maps
    // them back to page identity. A frame freed (or migrated away) since
    // it was counted no longer names a page on this device — drop it.
    const mem::FrameInfo& frame = system_.phys().frame(e.pfn);
    if (!frame.allocated) continue;
    // += rather than =: a huge page's 4 KiB frames aggregate into one
    // descriptor, and multiple devices may report the same mapping.
    cur_devmon_[PageKey{frame.pid, frame.page_va}] += e.count;
  }
}

EpochObservation TmpDriver::end_epoch() {
  EpochObservation closed;
  end_epoch_into(closed);
  return closed;
}

void TmpDriver::end_epoch_into(EpochObservation& out) {
  const auto seal_start = std::chrono::steady_clock::now();
  // Pull any buffered samples into this epoch before closing it. In
  // streaming mode this is the drain-and-seal: most records were already
  // folded by the mid-step pump, so only the residual ring tail, the
  // ring-full spills, and the DevMon report (which routes through the
  // device lane) remain.
  if (stream_) pump_stream();
  if (ibs_) ibs_->drain();
  if (pebs_) pebs_->drain();
  if (pml_) pml_->drain();
  if (devmon_) devmon_->drain();
  if (stream_) {
    pump_stream();  // the device lane (and any A-bit tail) just filled
    if (ibs_) ibs_->stream_epoch_reset();
    if (pebs_) pebs_->stream_epoch_reset();
    abit_seq_ = 0;
    dev_seq_ = 0;
    t_stream_depth_.set(stream_->high_water());
    stream_->reset_high_water();
    const std::uint64_t drops = stream_->drops_total();
    t_stream_drops_.add(drops - stream_drops_exported_);
    stream_drops_exported_ = drops;
    t_stream_records_.add(stream_records_ - stream_records_exported_);
    stream_records_exported_ = stream_records_;
    // Wall-clock (not sim-time) cost of the drain-and-seal: this gauge is
    // observational and excluded from byte-identity claims.
    t_stream_seal_ns_.set(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - seal_start)
            .count()));
  }
  out.epoch = epoch_;
  // Exact mode swaps the accumulator maps out, adopting out's previous
  // buffers — the same two-buffer protocol the swap-based path used.
  cur_abit_.end_epoch_into(out.abit);
  cur_trace_.end_epoch_into(out.trace);
  cur_writes_.end_epoch_into(out.writes);
  out.devmon.swap(cur_devmon_);
  cur_devmon_.clear();
  ++epoch_;
  overflow_seen_.clear();
  // Monitor-level gauges: cumulative values read from the backend at each
  // epoch close (tags_lost is IBS-only; PEBS tagging cannot miss).
  if (ibs_) {
    t_mon_samples_.set(ibs_->samples_taken());
    t_mon_tags_lost_.set(ibs_->tags_lost());
    t_mon_interrupts_.set(ibs_->interrupts());
  } else if (pebs_) {
    t_mon_samples_.set(pebs_->samples_taken());
    t_mon_interrupts_.set(pebs_->interrupts());
  }
  if (devmon_) {
    t_devmon_observed_.set(devmon_->observed());
    t_devmon_reported_.set(devmon_->reported());
    t_devmon_evictions_.set(devmon_->evictions());
    for (std::size_t i = 0; i < t_devmon_occupied_.size(); ++i) {
      t_devmon_occupied_[i].set(
          devmon_->occupied(static_cast<mem::TierId>(i + 1)));
    }
  }
}

util::SimNs TmpDriver::trace_overhead_ns() const noexcept {
  if (ibs_) return ibs_->overhead_ns();
  if (pebs_) return pebs_->overhead_ns();
  return 0;
}

util::SimNs TmpDriver::overhead_ns() const noexcept {
  return trace_overhead_ns() + scanner_.overhead_ns();
}

void TmpDriver::save_state(util::ckpt::Writer& w) const {
  w.put_u8(static_cast<std::uint8_t>(config_.backend));
  w.put_bool(pml_ != nullptr);
  if (ibs_) ibs_->save_state(w);
  if (pebs_) pebs_->save_state(w);
  if (pml_) pml_->save_state(w);
  scanner_.save_state(w);
  store_.save_state(w);
  cur_abit_.save_state(w, "driver");
  cur_trace_.save_state(w, "driver");
  cur_writes_.save_state(w, "driver");
  w.put_u32(epoch_);
  w.put_bool(trace_enabled_);
  w.put_u64(trace_samples_kept_);
  w.put_u64(trace_samples_dropped_);
  w.put_u64(scans_aborted_);
  save_page_counts(w, overflow_seen_);
}

void TmpDriver::load_state(util::ckpt::Reader& r) {
  const auto backend = static_cast<TraceBackend>(r.get_u8());
  if (backend != config_.backend) {
    throw util::ckpt::CkptError("driver", "trace backend mismatch");
  }
  const bool has_pml = r.get_bool();
  if (has_pml != (pml_ != nullptr)) {
    throw util::ckpt::CkptError("driver", "PML presence mismatch");
  }
  if (ibs_) ibs_->load_state(r);
  if (pebs_) pebs_->load_state(r);
  if (pml_) pml_->load_state(r);
  scanner_.load_state(r);
  store_.load_state(r);
  cur_abit_.load_state(r, "driver");
  cur_trace_.load_state(r, "driver");
  cur_writes_.load_state(r, "driver");
  epoch_ = r.get_u32();
  // Routed through the setter so observer registration tracks the flag.
  set_trace_enabled(r.get_bool());
  trace_samples_kept_ = r.get_u64();
  trace_samples_dropped_ = r.get_u64();
  scans_aborted_ = r.get_u64();
  load_page_counts(r, overflow_seen_);
}

void TmpDriver::save_stream_state(util::ckpt::Writer& w) const {
  w.put_bool(stream_ != nullptr);
  if (!stream_) return;
  w.put_u32(stream_->config().ring_capacity);
  w.put_u32(stream_->trace_lanes());
  w.put_u64(stream_records_);
  w.put_u64(stream_->drops_total());
  w.put_u64(stream_drops_exported_);
  w.put_u64(stream_records_exported_);
  w.put_u32(abit_seq_);
  w.put_u32(dev_seq_);
}

void TmpDriver::load_stream_state(util::ckpt::Reader& r) {
  const bool has_stream = r.get_bool();
  if (has_stream != (stream_ != nullptr)) {
    throw util::ckpt::CkptError("stream", "streaming presence mismatch");
  }
  if (!stream_) return;
  const std::uint32_t ring_capacity = r.get_u32();
  const std::uint32_t lanes = r.get_u32();
  if (ring_capacity != stream_->config().ring_capacity ||
      lanes != stream_->trace_lanes()) {
    throw util::ckpt::CkptError("stream", "transport geometry mismatch");
  }
  stream_records_ = r.get_u64();
  // Checkpoints land at sealed barriers, so live rings are empty; the drop
  // tally carries over as a base the fresh (zeroed) ring counters add to.
  stream_->set_carried_drops(r.get_u64());
  stream_drops_exported_ = r.get_u64();
  stream_records_exported_ = r.get_u64();
  abit_seq_ = r.get_u32();
  dev_seq_ = r.get_u32();
}

void TmpDriver::save_devmon_state(util::ckpt::Writer& w) const {
  w.put_bool(devmon_ != nullptr);
  if (!devmon_) return;
  devmon_->save_state(w);
  save_page_counts(w, cur_devmon_);
}

void TmpDriver::load_devmon_state(util::ckpt::Reader& r) {
  const bool has_devmon = r.get_bool();
  if (has_devmon != (devmon_ != nullptr)) {
    throw util::ckpt::CkptError("devmon", "device monitor presence mismatch");
  }
  if (!devmon_) return;
  devmon_->load_state(r);
  load_page_counts(r, cur_devmon_);
}

}  // namespace tmprof::core
