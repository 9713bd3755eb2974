#pragma once
/// \file page_stats.hpp
/// Per-frame detection tallies for Table IV: which frames the A-bit scan
/// and the trace monitor each observed, and which both observed within one
/// epoch ("Both" in Table IV).

#include <cstdint>
#include <vector>

#include "mem/addr.hpp"

namespace tmprof::core {

/// Frame-indexed detection store.
class PageStatsStore {
 public:
  explicit PageStatsStore(std::uint64_t total_frames);

  /// Record an A-bit observation for the mapping whose head frame is `head`
  /// during `epoch`.
  void record_abit(mem::Pfn head, std::uint32_t epoch);

  /// Record a trace sample that hit 4 KiB frame `pfn` during `epoch`.
  void record_trace(mem::Pfn pfn, std::uint32_t epoch);

  /// Frames with at least one observation from the given method.
  [[nodiscard]] std::uint64_t frames_with_abit() const noexcept {
    return frames_with_abit_;
  }
  [[nodiscard]] std::uint64_t frames_with_trace() const noexcept {
    return frames_with_trace_;
  }
  /// Frames that were co-detected by both methods within one epoch at least
  /// once (Table IV "Both").
  [[nodiscard]] std::uint64_t frames_with_both() const noexcept {
    return frames_with_both_;
  }

 private:
  struct Desc {
    static constexpr std::uint32_t kNever = 0xffffffffU;
    std::uint32_t last_abit_epoch = kNever;
    std::uint32_t last_trace_epoch = kNever;
    bool both = false;
  };

  /// Marks `d` co-detected if the other method saw it in `epoch` too.
  void note_both(Desc& d, std::uint32_t other_epoch, std::uint32_t epoch);

  std::vector<Desc> descs_;
  std::uint64_t frames_with_abit_ = 0;
  std::uint64_t frames_with_trace_ = 0;
  std::uint64_t frames_with_both_ = 0;
};

}  // namespace tmprof::core
