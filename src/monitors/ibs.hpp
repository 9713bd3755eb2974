#pragma once
/// \file ibs.hpp
/// AMD Instruction Based Sampling model (op sampling). Hardware tags every
/// Nth retired micro-op; if the tagged uop is a memory op, a record with the
/// load/store addresses and data source is produced. Tags landing on
/// non-memory uops are lost samples, exactly as on real IBS.
///
/// Sampling-rate naming matches the paper: the *default* rate is one tag
/// per 262,144 uops; "4x" and "8x" divide that period by 4 and 8.

#include <cstdint>
#include <vector>

#include "monitors/trace.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace tmprof::monitors {

/// Tuning knobs of the IBS driver (Section III-B1).
struct IbsConfig {
  /// Tag one micro-op out of this many. Paper default: 262144.
  std::uint64_t sample_period = 262144;
  /// Ring-buffer capacity in records; a full buffer raises an interrupt.
  std::uint32_t buffer_capacity = 4096;
  /// Cost model: handler work per drained record and per interrupt. Defaults
  /// chosen so the paper's <5% overhead at 4x reproduces.
  util::SimNs cost_per_record_ns = 400;
  util::SimNs cost_per_interrupt_ns = 4000;

  [[nodiscard]] static IbsConfig with_period(std::uint64_t period) {
    IbsConfig cfg;
    cfg.sample_period = period;
    return cfg;
  }
};

/// Per-system IBS monitor: one tagging countdown per core in front of the
/// shared trace-sample transport.
class IbsMonitor final : public TraceMonitor {
 public:
  IbsMonitor(const IbsConfig& config, std::uint32_t cores,
             std::uint64_t seed = 0x1b5);

  void on_retire(std::uint32_t core, std::uint64_t uops,
                 util::SimNs now) override;
  void on_mem_op(const MemOpEvent& event) override;

  [[nodiscard]] std::uint64_t tags_lost() const noexcept override;

 private:
  /// Per-core tag state, written on every retire by the core's own thread
  /// in sharded mode; cache-line aligned so no two cores share a line.
  struct alignas(util::kCacheLine) Tag {
    std::int64_t countdown = 0;
    bool armed = false;         ///< tag waiting for this core's next op
    util::Rng rng{0};           ///< sharded mode only
    std::uint64_t tags_lost = 0;  ///< sharded mode only
  };

  void reload(Tag& tag, util::Rng& rng);

  void shard_trigger() override;
  void save_trigger(util::ckpt::Writer& w, std::uint32_t lane) const override;
  void load_trigger(util::ckpt::Reader& r, std::uint32_t lane) override;
  void save_tally(util::ckpt::Writer& w, std::uint32_t lane) const override;
  void load_tally(util::ckpt::Reader& r, std::uint32_t lane) override;

  IbsConfig config_;
  util::Rng rng_;  ///< serial mode: one stream for every core
  std::uint64_t seed_;
  std::uint64_t tags_lost_ = 0;  ///< serial mode
  std::vector<Tag> tags_;
};

}  // namespace tmprof::monitors
