#include "monitors/ibs.hpp"

#include "util/assert.hpp"
#include "util/ckpt_io.hpp"

namespace tmprof::monitors {

IbsMonitor::IbsMonitor(const IbsConfig& config, std::uint32_t cores,
                       std::uint64_t seed)
    : TraceMonitor("ibs", cores,
                   TraceCosts{config.buffer_capacity, config.cost_per_record_ns,
                              config.cost_per_interrupt_ns}),
      config_(config),
      rng_(seed),
      seed_(seed),
      tags_(cores) {
  TMPROF_EXPECTS(config.sample_period >= 16);
  for (Tag& tag : tags_) reload(tag, rng_);
}

void IbsMonitor::shard_trigger() {
  for (std::uint32_t c = 0; c < tags_.size(); ++c) {
    // Independent, reproducible per-core tag-randomization streams.
    std::uint64_t mix = seed_ ^ (0x9e3779b97f4a7c15ULL * (c + 1));
    tags_[c].rng = util::Rng(util::splitmix64(mix));
    reload(tags_[c], tags_[c].rng);  // re-arm from the core's own stream
  }
}

void IbsMonitor::reload(Tag& tag, util::Rng& rng) {
  // Randomize the low 1/16 of the period, like IbsOpCurCnt randomization
  // (hardware does this to avoid lock-step with loops).
  const std::uint64_t jitter_span = config_.sample_period / 16 + 1;
  std::int64_t period = static_cast<std::int64_t>(config_.sample_period) +
                        static_cast<std::int64_t>(rng.below(jitter_span)) -
                        static_cast<std::int64_t>(jitter_span / 2);
  if (period < 1) period = 1;
  tag.countdown = period;
}

void IbsMonitor::on_retire(std::uint32_t core, std::uint64_t uops,
                           util::SimNs now) {
  (void)now;
  TMPROF_ASSERT(core < tags_.size());
  Tag& tag = tags_[core];
  tag.countdown -= static_cast<std::int64_t>(uops);
  if (tag.countdown > 0) return;
  util::Rng& rng = sharded() ? tag.rng : rng_;
  reload(tag, rng);
  std::uint64_t& tags_lost = sharded() ? tag.tags_lost : tags_lost_;
  if (tag.armed) {
    // Previous tag never matched a memory op before the next fired: lost.
    ++tags_lost;
  }
  // The tagged uop is one of the `uops` just retired. Only one of them is
  // the memory micro-op the upcoming on_mem_op() call describes, so arm the
  // tag with probability 1/uops; otherwise the tag hit a non-memory uop.
  if (uops <= 1 || rng.below(uops) == 0) {
    tag.armed = true;
  } else {
    ++tags_lost;
  }
}

void IbsMonitor::on_mem_op(const MemOpEvent& event) {
  TMPROF_ASSERT(event.core < tags_.size());
  Tag& tag = tags_[event.core];
  if (!tag.armed) return;
  tag.armed = false;
  take_sample(event);
}

std::uint64_t IbsMonitor::tags_lost() const noexcept {
  std::uint64_t total = tags_lost_;
  for (const Tag& tag : tags_) total += tag.tags_lost;
  return total;
}

// ---------------------------------------------------------------------------
// Checkpoint hooks

void IbsMonitor::save_trigger(util::ckpt::Writer& w,
                              std::uint32_t lane) const {
  if (lane != kWide) {
    util::ckpt::save_rng(w, tags_[lane].rng);
    return;
  }
  util::ckpt::save_rng(w, rng_);
  w.put_u32(static_cast<std::uint32_t>(tags_.size()));
  for (const Tag& tag : tags_) w.put_i64(tag.countdown);
  for (const Tag& tag : tags_) w.put_u8(tag.armed ? 1 : 0);
}

void IbsMonitor::load_trigger(util::ckpt::Reader& r, std::uint32_t lane) {
  if (lane != kWide) {
    util::ckpt::load_rng(r, tags_[lane].rng);
    return;
  }
  util::ckpt::load_rng(r, rng_);
  if (r.get_u32() != tags_.size()) reject("core count mismatch");
  for (Tag& tag : tags_) tag.countdown = r.get_i64();
  for (Tag& tag : tags_) tag.armed = r.get_u8() != 0;
}

void IbsMonitor::save_tally(util::ckpt::Writer& w, std::uint32_t lane) const {
  w.put_u64(lane == kWide ? tags_lost_ : tags_[lane].tags_lost);
}

void IbsMonitor::load_tally(util::ckpt::Reader& r, std::uint32_t lane) {
  (lane == kWide ? tags_lost_ : tags_[lane].tags_lost) = r.get_u64();
}

}  // namespace tmprof::monitors
