#pragma once
/// \file gating.hpp
/// Activity gating — TMP's first overhead optimization (Section III-B4).
/// The daemon periodically reads a cheap HWPC miss counter; TMP tracks the
/// maximum per-period count seen so far and considers the corresponding
/// profiling method *active* only while the current count exceeds 20% of
/// that maximum. A-bit scanning gates on TLB misses, trace collection on
/// LLC misses.

#include <cstdint>

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::core {

class ActivityGate {
 public:
  /// \param threshold fraction of the historical max that counts as active.
  explicit ActivityGate(double threshold = 0.2);

  /// Feed one period's event count; returns whether the gated profiling
  /// method should run this period.
  bool update(std::uint64_t period_count);

  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] std::uint64_t max_seen() const noexcept { return max_seen_; }

  void reset();

  /// Checkpoint hooks: the running maximum and the active flag.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  double threshold_;
  std::uint64_t max_seen_ = 0;
  bool active_ = true;  // start enabled until a baseline max exists
};

}  // namespace tmprof::core
