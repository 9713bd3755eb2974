/// TraceMonitor differential tests: IbsMonitor and PebsMonitor share one
/// sample transport (monitors/trace.hpp). The reference models below are
/// the self-contained monitors that predate it, each with its own buffer,
/// lanes, stream push and checkpoint lines; both implementations are fed
/// the same seeded retire and memory-op streams across {IBS, PEBS} x
/// {serial, sharded, streaming} x buffer capacities {1, 3, 4096}, and must
/// agree on the drained sample sequences, ring records and spills, every
/// tally, overhead_ns and the save_state bytes. Also covered: rejection of
/// an image from the other engine mode, and concurrent per-core producers
/// (the TSan preset runs this suite).

#include "monitors/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "monitors/ibs.hpp"
#include "monitors/pebs.hpp"
#include "util/ckpt.hpp"
#include "util/ckpt_io.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"

namespace tmprof::monitors {
namespace {

using Rings = std::vector<util::SpscRing<StreamRecord>*>;
using SpillFn = std::function<void(std::span<const StreamRecord>)>;
using DrainFn = std::function<void(std::span<const TraceSample>)>;

// ---------------------------------------------------------------------------
// Reference models: the IBS and PEBS monitors as they were before the
// shared transport, one full copy of the after-trigger code each.

class RefIbsMonitor final : public AccessObserver {
 public:
  RefIbsMonitor(const IbsConfig& config, std::uint32_t cores,
                std::uint64_t seed = 0x1b5)
      : config_(config),
        rng_(seed),
        seed_(seed),
        countdown_(cores),
        tag_armed_(cores, 0) {
    buffer_.reserve(config.buffer_capacity);
    for (std::uint32_t c = 0; c < cores; ++c) reload(c);
  }

  void set_drain(DrainFn drain) { drain_ = std::move(drain); }

  void enable_sharded() {
    if (sharded_) return;
    sharded_ = true;
    lanes_.resize(countdown_.size());
    for (std::uint32_t c = 0; c < lanes_.size(); ++c) {
      std::uint64_t mix = seed_ ^ (0x9e3779b97f4a7c15ULL * (c + 1));
      lanes_[c].rng = util::Rng(util::splitmix64(mix));
      lanes_[c].buffer.reserve(config_.buffer_capacity);
      reload(c);
    }
  }

  void enable_streaming(Rings rings, SpillFn spill) {
    enable_sharded();
    for (std::uint32_t c = 0; c < lanes_.size(); ++c) lanes_[c].ring = rings[c];
    stream_spill_ = std::move(spill);
    streaming_ = true;
  }

  void stream_epoch_reset() {
    for (CoreLane& lane : lanes_) lane.stream_seq = 0;
  }

  void on_retire(std::uint32_t core, std::uint64_t uops,
                 util::SimNs /*now*/) override {
    countdown_[core] -= static_cast<std::int64_t>(uops);
    if (countdown_[core] > 0) return;
    reload(core);
    std::uint64_t& tags_lost = sharded_ ? lanes_[core].tags_lost : tags_lost_;
    if (tag_armed_[core]) ++tags_lost;
    util::Rng& rng = sharded_ ? lanes_[core].rng : rng_;
    if (uops <= 1 || rng.below(uops) == 0) {
      tag_armed_[core] = 1;
    } else {
      ++tags_lost;
    }
  }

  void on_mem_op(const MemOpEvent& event) override {
    if (!tag_armed_[event.core]) return;
    tag_armed_[event.core] = 0;
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
      CoreLane& lane = lanes_[event.core];
      ++lane.samples;
      if (streaming_) {
        const StreamRecord rec = encode_trace_record(
            static_cast<std::uint16_t>(event.core), lane.stream_seq++, sample);
        if (!lane.ring->try_push(rec)) lane.spill.push_back(rec);
        ++lane.since_drain;
        if (lane.since_drain % config_.buffer_capacity == 0) ++lane.interrupts;
        return;
      }
      lane.buffer.push_back(sample);
      if (lane.buffer.size() % config_.buffer_capacity == 0) ++lane.interrupts;
      return;
    }
    buffer_.push_back(sample);
    ++samples_taken_;
    if (buffer_.size() >= config_.buffer_capacity) {
      ++interrupts_;
      drain();
    }
  }

  void drain() {
    if (streaming_) {
      for (CoreLane& lane : lanes_) {
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
      for (CoreLane& lane : lanes_) {
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

  [[nodiscard]] std::uint64_t samples_taken() const noexcept {
    std::uint64_t total = samples_taken_;
    for (const CoreLane& lane : lanes_) total += lane.samples;
    return total;
  }
  [[nodiscard]] std::uint64_t tags_lost() const noexcept {
    std::uint64_t total = tags_lost_;
    for (const CoreLane& lane : lanes_) total += lane.tags_lost;
    return total;
  }
  [[nodiscard]] std::uint64_t interrupts() const noexcept {
    std::uint64_t total = interrupts_;
    for (const CoreLane& lane : lanes_) total += lane.interrupts;
    return total;
  }
  [[nodiscard]] util::SimNs overhead_ns() const noexcept {
    return samples_taken() * config_.cost_per_record_ns +
           interrupts() * config_.cost_per_interrupt_ns;
  }

  void save_state(util::ckpt::Writer& w) const {
    util::ckpt::save_rng(w, rng_);
    w.put_u32(static_cast<std::uint32_t>(countdown_.size()));
    for (const std::int64_t c : countdown_) w.put_i64(c);
    for (const std::uint8_t armed : tag_armed_) w.put_u8(armed);
    w.put_u64(buffer_.size());
    for (const TraceSample& s : buffer_) save_sample(w, s);
    w.put_u64(samples_taken_);
    w.put_u64(tags_lost_);
    w.put_u64(interrupts_);
    w.put_bool(sharded_);
    w.put_u32(static_cast<std::uint32_t>(lanes_.size()));
    for (const CoreLane& lane : lanes_) {
      util::ckpt::save_rng(w, lane.rng);
      w.put_u64(lane.buffer.size());
      for (const TraceSample& s : lane.buffer) save_sample(w, s);
      w.put_u64(lane.samples);
      w.put_u64(lane.tags_lost);
      w.put_u64(lane.interrupts);
    }
    w.put_bool(streaming_);
    if (streaming_) {
      for (const CoreLane& lane : lanes_) {
        w.put_u64(lane.spill.size());
        for (const StreamRecord& rec : lane.spill) save_stream_record(w, rec);
        w.put_u32(lane.stream_seq);
        w.put_u32(lane.since_drain);
      }
    }
  }

 private:
  struct CoreLane {
    util::Rng rng{0};
    std::vector<TraceSample> buffer;
    std::uint64_t samples = 0;
    std::uint64_t tags_lost = 0;
    std::uint64_t interrupts = 0;
    util::SpscRing<StreamRecord>* ring = nullptr;
    std::vector<StreamRecord> spill;
    std::uint32_t stream_seq = 0;
    std::uint32_t since_drain = 0;
  };

  void reload(std::uint32_t core) {
    util::Rng& rng = sharded_ ? lanes_[core].rng : rng_;
    const std::uint64_t jitter_span = config_.sample_period / 16 + 1;
    std::int64_t period = static_cast<std::int64_t>(config_.sample_period) +
                          static_cast<std::int64_t>(rng.below(jitter_span)) -
                          static_cast<std::int64_t>(jitter_span / 2);
    if (period < 1) period = 1;
    countdown_[core] = period;
  }

  IbsConfig config_;
  DrainFn drain_;
  util::Rng rng_;
  std::uint64_t seed_;
  std::vector<std::int64_t> countdown_;
  std::vector<std::uint8_t> tag_armed_;
  std::vector<TraceSample> buffer_;
  std::uint64_t samples_taken_ = 0;
  std::uint64_t tags_lost_ = 0;
  std::uint64_t interrupts_ = 0;
  bool sharded_ = false;
  bool streaming_ = false;
  SpillFn stream_spill_;
  std::vector<CoreLane> lanes_;
};

class RefPebsMonitor final : public AccessObserver {
 public:
  RefPebsMonitor(const PebsConfig& config, std::uint32_t cores)
      : config_(config), counter_(cores, 0) {
    buffer_.reserve(config.buffer_capacity);
  }

  void set_drain(DrainFn drain) { drain_ = std::move(drain); }

  void enable_sharded() {
    if (sharded_) return;
    sharded_ = true;
    lanes_.resize(counter_.size());
    for (CoreLane& lane : lanes_) lane.buffer.reserve(config_.buffer_capacity);
  }

  void enable_streaming(Rings rings, SpillFn spill) {
    enable_sharded();
    for (std::uint32_t c = 0; c < lanes_.size(); ++c) lanes_[c].ring = rings[c];
    stream_spill_ = std::move(spill);
    streaming_ = true;
  }

  void stream_epoch_reset() {
    for (CoreLane& lane : lanes_) lane.stream_seq = 0;
  }

  void on_mem_op(const MemOpEvent& event) override {
    if (!mem::is_memory(event.source)) return;
    if (sharded_) {
      ++lanes_[event.core].events;
    } else {
      ++events_seen_;
    }
    if (++counter_[event.core] < config_.sample_after) return;
    counter_[event.core] = 0;
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
      CoreLane& lane = lanes_[event.core];
      ++lane.samples;
      if (streaming_) {
        const StreamRecord rec = encode_trace_record(
            static_cast<std::uint16_t>(event.core), lane.stream_seq++, sample);
        if (!lane.ring->try_push(rec)) lane.spill.push_back(rec);
        ++lane.since_drain;
        if (lane.since_drain % config_.buffer_capacity == 0) ++lane.interrupts;
        return;
      }
      lane.buffer.push_back(sample);
      if (lane.buffer.size() % config_.buffer_capacity == 0) ++lane.interrupts;
      return;
    }
    buffer_.push_back(sample);
    ++samples_taken_;
    if (buffer_.size() >= config_.buffer_capacity) {
      ++interrupts_;
      drain();
    }
  }

  void drain() {
    if (streaming_) {
      for (CoreLane& lane : lanes_) {
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
      for (CoreLane& lane : lanes_) {
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

  [[nodiscard]] std::uint64_t samples_taken() const noexcept {
    std::uint64_t total = samples_taken_;
    for (const CoreLane& lane : lanes_) total += lane.samples;
    return total;
  }
  [[nodiscard]] std::uint64_t events_seen() const noexcept {
    std::uint64_t total = events_seen_;
    for (const CoreLane& lane : lanes_) total += lane.events;
    return total;
  }
  [[nodiscard]] std::uint64_t interrupts() const noexcept {
    std::uint64_t total = interrupts_;
    for (const CoreLane& lane : lanes_) total += lane.interrupts;
    return total;
  }
  [[nodiscard]] util::SimNs overhead_ns() const noexcept {
    return samples_taken() * config_.cost_per_record_ns +
           interrupts() * config_.cost_per_interrupt_ns;
  }

  void save_state(util::ckpt::Writer& w) const {
    w.put_u32(static_cast<std::uint32_t>(counter_.size()));
    for (const std::uint64_t c : counter_) w.put_u64(c);
    w.put_u64(buffer_.size());
    for (const TraceSample& s : buffer_) save_sample(w, s);
    w.put_u64(samples_taken_);
    w.put_u64(events_seen_);
    w.put_u64(interrupts_);
    w.put_bool(sharded_);
    w.put_u32(static_cast<std::uint32_t>(lanes_.size()));
    for (const CoreLane& lane : lanes_) {
      w.put_u64(lane.buffer.size());
      for (const TraceSample& s : lane.buffer) save_sample(w, s);
      w.put_u64(lane.samples);
      w.put_u64(lane.events);
      w.put_u64(lane.interrupts);
    }
    w.put_bool(streaming_);
    if (streaming_) {
      for (const CoreLane& lane : lanes_) {
        w.put_u64(lane.spill.size());
        for (const StreamRecord& rec : lane.spill) save_stream_record(w, rec);
        w.put_u32(lane.stream_seq);
        w.put_u32(lane.since_drain);
      }
    }
  }

 private:
  struct CoreLane {
    std::vector<TraceSample> buffer;
    std::uint64_t samples = 0;
    std::uint64_t events = 0;
    std::uint64_t interrupts = 0;
    util::SpscRing<StreamRecord>* ring = nullptr;
    std::vector<StreamRecord> spill;
    std::uint32_t stream_seq = 0;
    std::uint32_t since_drain = 0;
  };

  PebsConfig config_;
  DrainFn drain_;
  std::vector<std::uint64_t> counter_;
  std::vector<TraceSample> buffer_;
  std::uint64_t samples_taken_ = 0;
  std::uint64_t events_seen_ = 0;
  std::uint64_t interrupts_ = 0;
  bool sharded_ = false;
  bool streaming_ = false;
  SpillFn stream_spill_;
  std::vector<CoreLane> lanes_;
};

// ---------------------------------------------------------------------------
// Harness

enum class Backend { Ibs, Pebs };
enum class Mode { Serial, Sharded, Streaming };

constexpr std::uint32_t kCores = 3;
/// Small rings so the streaming runs take the ring-full spill path.
constexpr std::uint32_t kRingCapacity = 4;

struct Op {
  std::uint64_t uops = 1;
  MemOpEvent event;
};

/// A seeded stream of (retire, memory op) pairs over kCores cores.
std::vector<Op> make_ops(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<Op> ops(n);
  for (std::size_t i = 0; i < n; ++i) {
    Op& op = ops[i];
    op.uops = 1 + rng.below(4);
    MemOpEvent& ev = op.event;
    ev.time = i;
    ev.core = static_cast<std::uint32_t>(rng.below(kCores));
    ev.pid = static_cast<mem::Pid>(1 + rng.below(3));
    ev.ip = rng();
    ev.vaddr = rng() & 0xffff'ffff'f000ULL;
    ev.paddr = rng() & 0xff'ffff'f000ULL;
    ev.is_store = rng.below(4) == 0;
    ev.source = static_cast<mem::DataSource>(rng.below(5));
    ev.tlb = static_cast<mem::TlbHit>(rng.below(3));
  }
  return ops;
}

std::vector<std::uint8_t> saved(const auto& monitor) {
  util::ckpt::Writer w;
  w.begin_section("monitor");
  monitor.save_state(w);
  w.end_section();
  return w.finish();
}

/// One monitor under test plus everything it hands out.
template <class Monitor>
struct Rig {
  std::unique_ptr<Monitor> monitor;
  std::vector<std::unique_ptr<util::SpscRing<StreamRecord>>> rings;
  std::vector<TraceSample> drained;
  std::vector<StreamRecord> consumed;  ///< ring records, in pump order
  std::vector<StreamRecord> spilled;
  std::vector<std::vector<std::uint8_t>> images;  ///< save_state snapshots

  Rig(std::unique_ptr<Monitor> m, Mode mode) : monitor(std::move(m)) {
    monitor->set_drain([this](std::span<const TraceSample> s) {
      drained.insert(drained.end(), s.begin(), s.end());
    });
    if (mode == Mode::Sharded) monitor->enable_sharded();
    if (mode == Mode::Streaming) {
      Rings raw;
      for (std::uint32_t c = 0; c < kCores; ++c) {
        rings.push_back(
            std::make_unique<util::SpscRing<StreamRecord>>(kRingCapacity));
        raw.push_back(rings.back().get());
      }
      monitor->enable_streaming(std::move(raw),
                                [this](std::span<const StreamRecord> s) {
                                  spilled.insert(spilled.end(), s.begin(),
                                                 s.end());
                                });
    }
  }

  void pump() {
    for (auto& ring : rings) {
      ring->drain([this](const StreamRecord& r) { consumed.push_back(r); });
    }
  }

  /// Feed `ops`, pumping the rings now and then, snapshotting the state
  /// mid-epoch and sealing an epoch (pump, drain, seq reset) every 4096.
  void feed(const std::vector<Op>& ops) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      monitor->on_retire(ops[i].event.core, ops[i].uops, ops[i].event.time);
      monitor->on_mem_op(ops[i].event);
      if (i % 509 == 508) pump();
      if (i % 4096 == 2047) images.push_back(saved(*monitor));
      if (i % 4096 == 4095) {
        pump();
        monitor->drain();
        monitor->stream_epoch_reset();
      }
    }
    images.push_back(saved(*monitor));
    pump();
    monitor->drain();
    images.push_back(saved(*monitor));
  }
};

void expect_same_samples(const std::vector<TraceSample>& got,
                         const std::vector<TraceSample>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const TraceSample& g = got[i];
    const TraceSample& w = want[i];
    EXPECT_TRUE(g.time == w.time && g.core == w.core && g.pid == w.pid &&
                g.ip == w.ip && g.vaddr == w.vaddr && g.paddr == w.paddr &&
                g.is_store == w.is_store && g.source == w.source &&
                g.tlb_miss == w.tlb_miss)
        << "sample " << i;
  }
}

void expect_same_records(const std::vector<StreamRecord>& got,
                         const std::vector<StreamRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const StreamRecord& g = got[i];
    const StreamRecord& w = want[i];
    EXPECT_TRUE(g.paddr == w.paddr && g.pid == w.pid && g.seq == w.seq &&
                g.lane == w.lane && g.flags == w.flags)
        << "record " << i;
  }
}

template <class Got, class Want>
void expect_same_run(Rig<Got>& got, Rig<Want>& want) {
  expect_same_samples(got.drained, want.drained);
  expect_same_records(got.consumed, want.consumed);
  expect_same_records(got.spilled, want.spilled);
  EXPECT_EQ(got.monitor->samples_taken(), want.monitor->samples_taken());
  EXPECT_EQ(got.monitor->interrupts(), want.monitor->interrupts());
  EXPECT_EQ(got.monitor->overhead_ns(), want.monitor->overhead_ns());
  ASSERT_EQ(got.images.size(), want.images.size());
  for (std::size_t i = 0; i < want.images.size(); ++i) {
    EXPECT_EQ(got.images[i], want.images[i]) << "save_state image " << i;
  }
}

IbsConfig ibs_config(std::uint32_t capacity) {
  IbsConfig cfg = IbsConfig::with_period(16);
  cfg.buffer_capacity = capacity;
  return cfg;
}

PebsConfig pebs_config(std::uint32_t capacity) {
  PebsConfig cfg;
  cfg.sample_after = 3;
  cfg.buffer_capacity = capacity;
  return cfg;
}

constexpr std::uint32_t kCapacities[] = {1, 3, 4096};

void expect_ibs_matches_reference(Mode mode) {
  for (const std::uint32_t cap : kCapacities) {
    SCOPED_TRACE("buffer capacity " + std::to_string(cap));
    const std::vector<Op> ops = make_ops(0x7ace + cap, 20000);
    Rig<IbsMonitor> got(
        std::make_unique<IbsMonitor>(ibs_config(cap), kCores, 77), mode);
    Rig<RefIbsMonitor> want(
        std::make_unique<RefIbsMonitor>(ibs_config(cap), kCores, 77), mode);
    got.feed(ops);
    want.feed(ops);
    expect_same_run(got, want);
    EXPECT_EQ(got.monitor->tags_lost(), want.monitor->tags_lost());
    EXPECT_GT(got.monitor->tags_lost(), 0U);
  }
}

void expect_pebs_matches_reference(Mode mode) {
  for (const std::uint32_t cap : kCapacities) {
    SCOPED_TRACE("buffer capacity " + std::to_string(cap));
    const std::vector<Op> ops = make_ops(0x7ace + cap, 20000);
    Rig<PebsMonitor> got(
        std::make_unique<PebsMonitor>(pebs_config(cap), kCores), mode);
    Rig<RefPebsMonitor> want(
        std::make_unique<RefPebsMonitor>(pebs_config(cap), kCores), mode);
    got.feed(ops);
    want.feed(ops);
    expect_same_run(got, want);
    EXPECT_EQ(got.monitor->events_seen(), want.monitor->events_seen());
    EXPECT_EQ(got.monitor->tags_lost(), 0U);
  }
}

TEST(TraceMonitorDifferential, IbsSerial) {
  expect_ibs_matches_reference(Mode::Serial);
}
TEST(TraceMonitorDifferential, IbsSharded) {
  expect_ibs_matches_reference(Mode::Sharded);
}
TEST(TraceMonitorDifferential, IbsStreaming) {
  expect_ibs_matches_reference(Mode::Streaming);
}
TEST(TraceMonitorDifferential, PebsSerial) {
  expect_pebs_matches_reference(Mode::Serial);
}
TEST(TraceMonitorDifferential, PebsSharded) {
  expect_pebs_matches_reference(Mode::Sharded);
}
TEST(TraceMonitorDifferential, PebsStreaming) {
  expect_pebs_matches_reference(Mode::Streaming);
}

TEST(TraceMonitorDifferential, StreamsExerciseEveryPath) {
  // The differential cases above are only as strong as the paths the
  // seeded streams reach: buffer-full drains, barrier drains, ring
  // records and ring-full spills.
  const std::vector<Op> ops = make_ops(0x7ace + 1, 20000);
  Rig<IbsMonitor> serial(
      std::make_unique<IbsMonitor>(ibs_config(1), kCores, 77), Mode::Serial);
  serial.feed(ops);
  EXPECT_EQ(serial.monitor->interrupts(), serial.monitor->samples_taken());
  EXPECT_GT(serial.drained.size(), 100U);
  Rig<PebsMonitor> sharded(
      std::make_unique<PebsMonitor>(pebs_config(3), kCores), Mode::Sharded);
  sharded.feed(ops);
  EXPECT_EQ(sharded.drained.size(), sharded.monitor->samples_taken());
  EXPECT_GT(sharded.monitor->interrupts(), 0U);
  Rig<IbsMonitor> streaming(
      std::make_unique<IbsMonitor>(ibs_config(3), kCores, 77),
      Mode::Streaming);
  streaming.feed(ops);
  EXPECT_GT(streaming.consumed.size(), 100U);
  EXPECT_GT(streaming.spilled.size(), 100U);
  EXPECT_TRUE(streaming.drained.empty());
}

// ---------------------------------------------------------------------------
// Checkpoint round trip and mode rejection.

std::unique_ptr<TraceMonitor> make_monitor(Backend backend) {
  if (backend == Backend::Ibs) {
    return std::make_unique<IbsMonitor>(ibs_config(3), kCores);
  }
  return std::make_unique<PebsMonitor>(pebs_config(3), kCores);
}

/// A monitor of `backend` in `mode`, fed a short stream (buffers non-empty).
std::vector<std::uint8_t> image_of(Backend backend, Mode mode) {
  Rig<TraceMonitor> rig(make_monitor(backend), mode);
  const std::vector<Op> ops = make_ops(11, 500);
  for (const Op& op : ops) {
    rig.monitor->on_retire(op.event.core, op.uops, op.event.time);
    rig.monitor->on_mem_op(op.event);
  }
  return saved(*rig.monitor);
}

void load_into(TraceMonitor& monitor, const std::vector<std::uint8_t>& image) {
  util::ckpt::Reader r(image);
  r.enter_section("monitor");
  monitor.load_state(r);
  r.end_section();
}

TEST(TraceMonitorCkpt, RoundTripReproducesImage) {
  for (const Backend b : {Backend::Ibs, Backend::Pebs}) {
    for (const Mode m : {Mode::Serial, Mode::Sharded, Mode::Streaming}) {
      const std::vector<std::uint8_t> image = image_of(b, m);
      Rig<TraceMonitor> fresh(make_monitor(b), m);
      load_into(*fresh.monitor, image);
      EXPECT_EQ(saved(*fresh.monitor), image);
    }
  }
}

TEST(TraceMonitorCkpt, EngineModeMismatchRejectedEitherWay) {
  // An image from the other engine mode is rejected under the monitor's
  // own name, never adopted: switching a serial monitor to sharded mode
  // would re-draw the IBS countdowns it had just restored.
  for (const Backend b : {Backend::Ibs, Backend::Pebs}) {
    const std::string name = b == Backend::Ibs ? "ibs" : "pebs";
    const std::vector<std::pair<Mode, Mode>> pairs = {
        {Mode::Sharded, Mode::Serial},
        {Mode::Serial, Mode::Sharded},
        {Mode::Streaming, Mode::Sharded},
        {Mode::Sharded, Mode::Streaming}};
    for (const auto& [written, loaded] : pairs) {
      const std::vector<std::uint8_t> image = image_of(b, written);
      Rig<TraceMonitor> rig(make_monitor(b), loaded);
      try {
        load_into(*rig.monitor, image);
        ADD_FAILURE() << name << ": mismatched image loaded";
      } catch (const util::ckpt::CkptError& err) {
        EXPECT_EQ(err.section(), name);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent producers: one thread per core, as the sharded engine's pool
// runs them, with the main thread pumping the rings meanwhile.

TEST(TraceMonitorConcurrency, PerCoreThreadsMatchReference) {
  const std::vector<Op> ops = make_ops(0xc0c0, 30000);
  std::vector<std::vector<Op>> per_core(kCores);
  for (const Op& op : ops) per_core[op.event.core].push_back(op);

  for (const Backend b : {Backend::Ibs, Backend::Pebs}) {
    Rig<TraceMonitor> got(make_monitor(b), Mode::Streaming);
    std::vector<std::thread> workers;
    for (std::uint32_t c = 0; c < kCores; ++c) {
      workers.emplace_back([&got, &per_core, c] {
        AccessObserver* sink = got.monitor->shard_sink(c);
        for (const Op& op : per_core[c]) {
          sink->on_retire(c, op.uops, op.event.time);
          sink->on_mem_op(op.event);
        }
      });
    }
    for (int i = 0; i < 64; ++i) got.pump();
    for (std::thread& t : workers) t.join();
    got.pump();
    got.monitor->merge_shards();

    // The reference sees the same per-core streams, one core after another.
    Rig<TraceMonitor> want(make_monitor(b), Mode::Streaming);
    for (std::uint32_t c = 0; c < kCores; ++c) {
      for (const Op& op : per_core[c]) {
        want.monitor->on_retire(c, op.uops, op.event.time);
        want.monitor->on_mem_op(op.event);
      }
    }
    want.pump();
    want.monitor->drain();

    // Which records spilled depends on scheduling; the per-lane record set
    // does not.
    const auto by_lane = [](Rig<TraceMonitor>& rig) {
      std::vector<StreamRecord> all = rig.consumed;
      all.insert(all.end(), rig.spilled.begin(), rig.spilled.end());
      std::sort(all.begin(), all.end(),
                [](const StreamRecord& x, const StreamRecord& y) {
                  return x.lane != y.lane ? x.lane < y.lane : x.seq < y.seq;
                });
      return all;
    };
    expect_same_records(by_lane(got), by_lane(want));
    EXPECT_EQ(got.monitor->samples_taken(), want.monitor->samples_taken());
    EXPECT_EQ(got.monitor->interrupts(), want.monitor->interrupts());
    EXPECT_EQ(got.monitor->tags_lost(), want.monitor->tags_lost());
    EXPECT_EQ(saved(*got.monitor), saved(*want.monitor));
  }
}

}  // namespace
}  // namespace tmprof::monitors
