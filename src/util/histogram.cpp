#include "util/histogram.hpp"

#include <algorithm>
#include <ostream>

#include "util/assert.hpp"

namespace tmprof::util {

Histogram::Histogram(std::uint64_t lo, std::uint64_t hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  TMPROF_EXPECTS(hi > lo);
  TMPROF_EXPECTS(buckets > 0);
  width_ = (hi - lo + buckets - 1) / buckets;
  TMPROF_ENSURES(width_ > 0);
}

void Histogram::add(std::uint64_t value, std::uint64_t weight) {
  total_ += weight;
  sum_ += value * weight;
  if (value < lo_) {
    underflow_ += weight;
    return;
  }
  if (value >= hi_) {
    overflow_ += weight;
    return;
  }
  const std::size_t bucket =
      std::min<std::size_t>((value - lo_) / width_, counts_.size() - 1);
  counts_[bucket] += weight;
}

std::uint64_t Histogram::count(std::size_t bucket) const {
  TMPROF_EXPECTS(bucket < counts_.size());
  return counts_[bucket];
}

std::uint64_t Histogram::bucket_lo(std::size_t bucket) const {
  TMPROF_EXPECTS(bucket < counts_.size());
  return lo_ + bucket * width_;
}

bool Histogram::same_shape(const Histogram& other) const noexcept {
  return lo_ == other.lo_ && hi_ == other.hi_ &&
         counts_.size() == other.counts_.size();
}

void Histogram::merge(const Histogram& other) {
  TMPROF_EXPECTS(same_shape(other));
  total_ += other.total_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

void Histogram::reset() noexcept {
  total_ = 0;
  underflow_ = 0;
  overflow_ = 0;
  sum_ = 0;
  std::fill(counts_.begin(), counts_.end(), 0);
}

Heatmap::Heatmap(std::uint64_t time_hi, std::size_t time_bins,
                 std::uint64_t addr_hi, std::size_t addr_bins)
    : time_hi_(time_hi),
      addr_hi_(addr_hi),
      time_bins_(time_bins),
      addr_bins_(addr_bins),
      cells_(time_bins * addr_bins, 0) {
  TMPROF_EXPECTS(time_hi > 0 && addr_hi > 0);
  TMPROF_EXPECTS(time_bins > 0 && addr_bins > 0);
}

void Heatmap::add(std::uint64_t time, std::uint64_t addr,
                  std::uint64_t weight) {
  if (time >= time_hi_ || addr >= addr_hi_) return;  // clipped, not an error
  const auto t = static_cast<std::size_t>(
      static_cast<unsigned __int128>(time) * time_bins_ / time_hi_);
  const auto a = static_cast<std::size_t>(
      static_cast<unsigned __int128>(addr) * addr_bins_ / addr_hi_);
  auto& cell = cells_[index(t, a)];
  cell += weight;
  total_ += weight;
  max_cell_ = std::max(max_cell_, cell);
}

std::uint64_t Heatmap::at(std::size_t time_bin, std::size_t addr_bin) const {
  TMPROF_EXPECTS(time_bin < time_bins_ && addr_bin < addr_bins_);
  return cells_[index(time_bin, addr_bin)];
}

std::string Heatmap::render_ascii() const {
  static constexpr char kRamp[] = " .:-=+*#%@";
  static constexpr std::size_t kLevels = sizeof(kRamp) - 2;  // top index
  std::string out;
  out.reserve((time_bins_ + 1) * addr_bins_);
  for (std::size_t a = addr_bins_; a-- > 0;) {  // high addresses on top
    for (std::size_t t = 0; t < time_bins_; ++t) {
      const std::uint64_t c = cells_[index(t, a)];
      std::size_t level = 0;
      if (c > 0 && max_cell_ > 0) {
        level = 1 + static_cast<std::size_t>(
                        static_cast<unsigned __int128>(c - 1) * (kLevels - 1) /
                        max_cell_);
        level = std::min(level, kLevels);
      }
      out.push_back(kRamp[level]);
    }
    out.push_back('\n');
  }
  return out;
}

void Heatmap::write_csv(std::ostream& os) const {
  os << "time_bin,addr_bin,count\n";
  for (std::size_t a = 0; a < addr_bins_; ++a) {
    for (std::size_t t = 0; t < time_bins_; ++t) {
      const std::uint64_t c = cells_[index(t, a)];
      if (c != 0) os << t << ',' << a << ',' << c << '\n';
    }
  }
}

}  // namespace tmprof::util
