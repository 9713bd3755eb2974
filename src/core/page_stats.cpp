#include "core/page_stats.hpp"

#include "util/assert.hpp"

namespace tmprof::core {

PageStatsStore::PageStatsStore(std::uint64_t total_frames)
    : descs_(total_frames) {}

void PageStatsStore::note_both(Desc& d, std::uint32_t other_epoch,
                               std::uint32_t epoch) {
  if (!d.both && other_epoch == epoch) {
    d.both = true;
    ++frames_with_both_;
  }
}

void PageStatsStore::record_abit(mem::Pfn head, std::uint32_t epoch) {
  TMPROF_EXPECTS(head < descs_.size());
  Desc& d = descs_[head];
  if (d.last_abit_epoch == Desc::kNever) ++frames_with_abit_;
  d.last_abit_epoch = epoch;
  note_both(d, d.last_trace_epoch, epoch);
}

void PageStatsStore::record_trace(mem::Pfn pfn, std::uint32_t epoch) {
  TMPROF_EXPECTS(pfn < descs_.size());
  Desc& d = descs_[pfn];
  if (d.last_trace_epoch == Desc::kNever) ++frames_with_trace_;
  d.last_trace_epoch = epoch;
  note_both(d, d.last_abit_epoch, epoch);
}

}  // namespace tmprof::core
