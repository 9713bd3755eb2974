#include "monitors/trace.hpp"

#include "util/assert.hpp"
#include "util/ckpt.hpp"

namespace tmprof::monitors {

TraceMonitor::TraceMonitor(const char* name, std::uint32_t cores,
                           const TraceCosts& costs)
    : name_(name), cores_(cores), costs_(costs) {
  TMPROF_EXPECTS(costs.buffer_capacity >= 1);
  TMPROF_EXPECTS(cores >= 1);
  buffer_.reserve(costs.buffer_capacity);
}

void TraceMonitor::enable_sharded() {
  if (sharded_) return;
  sharded_ = true;
  lanes_.resize(cores_);
  for (Lane& lane : lanes_) lane.buffer.reserve(costs_.buffer_capacity);
  shard_trigger();
}

void TraceMonitor::enable_streaming(
    std::vector<util::SpscRing<StreamRecord>*> rings, StreamSpillFn spill) {
  enable_sharded();
  TMPROF_EXPECTS(rings.size() == lanes_.size());
  for (std::uint32_t c = 0; c < lanes_.size(); ++c) {
    TMPROF_EXPECTS(rings[c] != nullptr);
    lanes_[c].ring = rings[c];
  }
  stream_spill_ = std::move(spill);
  streaming_ = true;
}

void TraceMonitor::stream_epoch_reset() {
  for (Lane& lane : lanes_) lane.stream_seq = 0;
}

void TraceMonitor::take_sample(const MemOpEvent& event) {
  TraceSample sample;
  sample.time = event.time;
  sample.core = event.core;
  sample.pid = event.pid;
  sample.ip = event.ip;
  sample.vaddr = event.vaddr;
  sample.paddr = event.paddr;
  sample.is_store = event.is_store;
  sample.source = event.source;
  sample.tlb_miss = event.tlb == mem::TlbHit::Miss;
  if (sharded_) {
    Lane& lane = lanes_[event.core];
    ++lane.samples;
    if (streaming_) {
      // Publish immediately; a full ring spills rather than drops, so the
      // record set per lane is identical however the consumer is scheduled.
      const StreamRecord rec = encode_trace_record(
          static_cast<std::uint16_t>(event.core), lane.stream_seq++, sample);
      if (!lane.ring->try_push(rec)) lane.spill.push_back(rec);
      // `since_drain` stands in for buffer.size() so the PMI/overhead model
      // charges exactly what the barrier path charges.
      ++lane.since_drain;
      if (lane.since_drain % costs_.buffer_capacity == 0) ++lane.interrupts;
      return;
    }
    lane.buffer.push_back(sample);
    // The PMI fires per buffer threshold; the handler cost is charged, but
    // the records stay put until the epoch barrier drains them (the driver
    // store is not shard-safe).
    if (lane.buffer.size() % costs_.buffer_capacity == 0) ++lane.interrupts;
    return;
  }
  buffer_.push_back(sample);
  ++samples_taken_;
  if (buffer_.size() >= costs_.buffer_capacity) {
    ++interrupts_;
    drain();
  }
}

void TraceMonitor::drain() {
  if (streaming_) {
    // Records in the rings belong to the driver's pump; here we only flush
    // what overflowed. Ascending lane order, though order is immaterial:
    // the streaming consumer folds commutatively and keys by (lane, seq).
    for (Lane& lane : lanes_) {
      if (!lane.spill.empty()) {
        if (stream_spill_) {
          stream_spill_(std::span<const StreamRecord>(lane.spill));
        }
        lane.spill.clear();
      }
      lane.since_drain = 0;
    }
    return;
  }
  if (sharded_) {
    for (Lane& lane : lanes_) {
      if (lane.buffer.empty()) continue;
      if (drain_) drain_(std::span<const TraceSample>(lane.buffer));
      lane.buffer.clear();
    }
    return;
  }
  if (buffer_.empty()) return;
  if (drain_) drain_(std::span<const TraceSample>(buffer_));
  buffer_.clear();
}

std::uint64_t TraceMonitor::samples_taken() const noexcept {
  std::uint64_t total = samples_taken_;
  for (const Lane& lane : lanes_) total += lane.samples;
  return total;
}

std::uint64_t TraceMonitor::interrupts() const noexcept {
  std::uint64_t total = interrupts_;
  for (const Lane& lane : lanes_) total += lane.interrupts;
  return total;
}

util::SimNs TraceMonitor::overhead_ns() const noexcept {
  return samples_taken() * costs_.cost_per_record_ns +
         interrupts() * costs_.cost_per_interrupt_ns;
}

void TraceMonitor::reject(const char* why) const {
  throw util::ckpt::CkptError(name_, why);
}

// ---------------------------------------------------------------------------
// Checkpoint hooks

namespace {

void save_samples(util::ckpt::Writer& w,
                  const std::vector<TraceSample>& samples) {
  w.put_u64(samples.size());
  for (const TraceSample& s : samples) save_sample(w, s);
}

void load_samples(util::ckpt::Reader& r, std::vector<TraceSample>& samples) {
  samples.resize(r.get_u64());
  for (TraceSample& s : samples) s = load_sample(r);
}

}  // namespace

void TraceMonitor::save_state(util::ckpt::Writer& w) const {
  save_trigger(w, kWide);
  save_samples(w, buffer_);
  w.put_u64(samples_taken_);
  save_tally(w, kWide);
  w.put_u64(interrupts_);
  w.put_bool(sharded_);
  w.put_u32(static_cast<std::uint32_t>(lanes_.size()));
  for (std::uint32_t c = 0; c < lanes_.size(); ++c) {
    const Lane& lane = lanes_[c];
    save_trigger(w, c);
    save_samples(w, lane.buffer);
    w.put_u64(lane.samples);
    save_tally(w, c);
    w.put_u64(lane.interrupts);
  }
  w.put_bool(streaming_);
  if (streaming_) {
    // Checkpoints land at sealed barriers, where spill/seq/since_drain are
    // all zero — but serialize them anyway so the format stays honest if a
    // mid-epoch snapshot ever appears.
    for (const Lane& lane : lanes_) {
      w.put_u64(lane.spill.size());
      for (const StreamRecord& rec : lane.spill) save_stream_record(w, rec);
      w.put_u32(lane.stream_seq);
      w.put_u32(lane.since_drain);
    }
  }
}

void TraceMonitor::load_state(util::ckpt::Reader& r) {
  load_trigger(r, kWide);
  load_samples(r, buffer_);
  samples_taken_ = r.get_u64();
  load_tally(r, kWide);
  interrupts_ = r.get_u64();
  // Lanes, rings and per-core trigger streams are wired at construction;
  // an image from the other engine cannot be resumed in place.
  if (r.get_bool() != sharded_) reject("sharded-mode mismatch");
  if (r.get_u32() != lanes_.size()) reject("lane count mismatch");
  for (std::uint32_t c = 0; c < lanes_.size(); ++c) {
    Lane& lane = lanes_[c];
    load_trigger(r, c);
    load_samples(r, lane.buffer);
    lane.samples = r.get_u64();
    load_tally(r, c);
    lane.interrupts = r.get_u64();
  }
  if (r.get_bool() != streaming_) reject("streaming-mode mismatch");
  if (streaming_) {
    for (Lane& lane : lanes_) {
      lane.spill.resize(r.get_u64());
      for (StreamRecord& rec : lane.spill) rec = load_stream_record(r);
      lane.stream_seq = r.get_u32();
      lane.since_drain = r.get_u32();
    }
  }
}

}  // namespace tmprof::monitors
