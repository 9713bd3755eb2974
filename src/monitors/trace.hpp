#pragma once
/// \file trace.hpp
/// The sample transport shared by the trace profilers (Section III-B1).
/// IBS and PEBS write the same record into a buffer whose threshold raises
/// an interrupt; only the trigger differs (a tagged retired uop vs. every
/// Nth qualifying event). A subclass implements the trigger and calls
/// take_sample(); this base owns everything after it: the serial buffer
/// and its buffer-full drain, the sharded engine's per-core lanes, the
/// streaming push with lane-local spill, the interrupt/overhead model, and
/// those fields' checkpoint lines.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "monitors/event.hpp"
#include "util/cache_line.hpp"
#include "util/ring.hpp"
#include "util/time.hpp"

namespace tmprof::monitors {

/// Buffer and cost model of a trace monitor (each backend's config carries
/// its own defaults).
struct TraceCosts {
  /// Buffer capacity in records; crossing it raises an interrupt.
  std::uint32_t buffer_capacity = 4096;
  /// Handler work per drained record and per interrupt.
  util::SimNs cost_per_record_ns = 0;
  util::SimNs cost_per_interrupt_ns = 0;
};

/// Base of IbsMonitor and PebsMonitor: the transport after the trigger.
class TraceMonitor : public AccessObserver {
 public:
  using DrainFn = std::function<void(std::span<const TraceSample>)>;
  using StreamSpillFn = std::function<void(std::span<const StreamRecord>)>;

  /// `name` tags the monitor's checkpoint errors ("ibs", "pebs").
  TraceMonitor(const char* name, std::uint32_t cores, const TraceCosts& costs);

  /// Install the buffer-full interrupt handler (the TMP driver's drain).
  void set_drain(DrainFn drain) { drain_ = std::move(drain); }

  /// Switch to sharded operation: per-core sample buffers and statistics,
  /// so each simulated core's callbacks may run on its own worker thread.
  /// Buffer-threshold interrupts are still *counted* per core (the overhead
  /// model is unchanged) but the drain to the driver is deferred to the
  /// epoch barrier, where buffers empty in ascending core order. Call
  /// before the first event is delivered.
  void enable_sharded();

  /// Streaming handoff (docs/STREAMING.md): instead of accumulating samples
  /// until the barrier, each core encodes a StreamRecord tagged (core, seq)
  /// and pushes it into its own SPSC ring; records that hit a full ring go
  /// to a lane-local spill vector that `spill` flushes at drain(). Implies
  /// sharded mode. `rings[c]` must outlive the monitor; one ring per core.
  void enable_streaming(std::vector<util::SpscRing<StreamRecord>*> rings,
                        StreamSpillFn spill);

  /// Restart per-core record sequence numbers (epoch seal, after every
  /// lane's records have been consumed).
  void stream_epoch_reset();

  AccessObserver* shard_sink(std::uint32_t /*core*/) override {
    return sharded_ ? this : nullptr;
  }
  void merge_shards() override { drain(); }

  /// Explicitly drain buffered records (periodic poll path). In sharded
  /// mode, drains every core's buffer in ascending core order; in
  /// streaming mode, flushes the ring-full spills.
  void drain();

  [[nodiscard]] std::uint64_t samples_taken() const noexcept;
  [[nodiscard]] std::uint64_t interrupts() const noexcept;
  /// Triggers that fired without producing a sample (IBS tags landing on
  /// non-memory uops). A trigger that fires on the sampled event itself
  /// loses none.
  [[nodiscard]] virtual std::uint64_t tags_lost() const noexcept { return 0; }
  /// Modeled software overhead of collection so far.
  [[nodiscard]] util::SimNs overhead_ns() const noexcept;

  /// Checkpoint hooks (util/ckpt.hpp). A sharded-mode or streaming-mode
  /// mismatch between the image and this monitor throws CkptError(name).
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 protected:
  /// The lane argument of the trigger's checkpoint hooks that names the
  /// monitor-wide state rather than one sharded lane.
  static constexpr std::uint32_t kWide = ~std::uint32_t{0};

  /// Record a sample of `event` (called by the trigger on `event.core`'s
  /// thread in sharded mode).
  void take_sample(const MemOpEvent& event);

  [[nodiscard]] bool sharded() const noexcept { return sharded_; }
  [[noreturn]] void reject(const char* why) const;

  /// Called once by enable_sharded(), after the lanes exist.
  virtual void shard_trigger() {}

  /// The trigger's checkpoint lines, at fixed points of the image:
  /// `save_trigger` before a buffer's samples and `save_tally` after its
  /// sample count, once for `kWide` and once per sharded lane.
  virtual void save_trigger(util::ckpt::Writer& w,
                            std::uint32_t lane) const = 0;
  virtual void load_trigger(util::ckpt::Reader& r, std::uint32_t lane) = 0;
  virtual void save_tally(util::ckpt::Writer& w, std::uint32_t lane) const = 0;
  virtual void load_tally(util::ckpt::Reader& r, std::uint32_t lane) = 0;

 private:
  /// Per-core transport state that a shard's worker thread owns
  /// exclusively in sharded mode; cache-line aligned so no two cores'
  /// lanes share a line.
  struct alignas(util::kCacheLine) Lane {
    std::vector<TraceSample> buffer;
    std::uint64_t samples = 0;
    std::uint64_t interrupts = 0;
    // Streaming mode only:
    util::SpscRing<StreamRecord>* ring = nullptr;  ///< not owned
    std::vector<StreamRecord> spill;  ///< ring-full overflow, never dropped
    std::uint32_t stream_seq = 0;     ///< next record seq this epoch
    std::uint32_t since_drain = 0;    ///< mirrors buffer.size() for the
                                      ///< interrupt/overhead model
  };

  const char* name_;
  std::uint32_t cores_;
  TraceCosts costs_;
  DrainFn drain_;
  std::vector<TraceSample> buffer_;
  std::uint64_t samples_taken_ = 0;
  std::uint64_t interrupts_ = 0;
  bool sharded_ = false;
  bool streaming_ = false;
  StreamSpillFn stream_spill_;
  std::vector<Lane> lanes_;  ///< populated in sharded mode
};

}  // namespace tmprof::monitors
