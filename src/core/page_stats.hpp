#pragma once
/// \file page_stats.hpp
/// Per-frame profiling statistics — the simulator's analog of the paper's
/// extended page descriptor (PD). The TMP driver accumulates A-bit and
/// trace-sample counts here via the phys_to_page() path (frame-indexed
/// array), and tracks same-epoch co-detection ("Both" in Table IV).

#include <cstdint>
#include <vector>

#include "mem/addr.hpp"

namespace tmprof::util::ckpt {
class Reader;
class Writer;
}  // namespace tmprof::util::ckpt

namespace tmprof::core {

/// Extended page-descriptor fields.
struct PageDesc {
  std::uint32_t abit_total = 0;    ///< scans that observed the A bit set
  std::uint32_t trace_total = 0;   ///< trace samples landing in this frame
  std::uint32_t last_abit_epoch = kNever;
  std::uint32_t last_trace_epoch = kNever;
  std::uint32_t both_epochs = 0;   ///< epochs where both methods hit

  static constexpr std::uint32_t kNever = 0xffffffffU;
};

/// Frame-indexed descriptor store.
class PageStatsStore {
 public:
  explicit PageStatsStore(std::uint64_t total_frames);

  /// Record an A-bit observation for the mapping whose head frame is `head`
  /// during `epoch`.
  void record_abit(mem::Pfn head, std::uint32_t epoch);

  /// Record a trace sample that hit 4 KiB frame `pfn` during `epoch`.
  void record_trace(mem::Pfn pfn, std::uint32_t epoch);

  [[nodiscard]] const PageDesc& desc(mem::Pfn pfn) const;

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

  void reset();

  /// Checkpoint hooks: descriptors are saved sparsely (only frames with at
  /// least one observation). Frame count must match on load.
  void save_state(util::ckpt::Writer& w) const;
  void load_state(util::ckpt::Reader& r);

 private:
  std::vector<PageDesc> descs_;
  std::uint64_t frames_with_abit_ = 0;
  std::uint64_t frames_with_trace_ = 0;
  std::uint64_t frames_with_both_ = 0;
};

}  // namespace tmprof::core
