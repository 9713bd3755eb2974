#pragma once
/// \file histogram.hpp
/// 1-D and 2-D histograms. The 2-D histogram backs the paper's access
/// heatmaps (Figs. 3 and 4): time on the X axis, physical address on Y,
/// access count as temperature.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tmprof::util {

/// Fixed-range linear-bucket histogram over uint64 values.
class Histogram {
 public:
  Histogram(std::uint64_t lo, std::uint64_t hi, std::size_t buckets);

  void add(std::uint64_t value, std::uint64_t weight = 1);

  [[nodiscard]] std::size_t buckets() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t bucket) const;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  /// Weighted sum of every added value (including under/overflow), for
  /// Prometheus-style `_sum` exposition.
  [[nodiscard]] std::uint64_t value_sum() const noexcept { return sum_; }
  /// Overwrite the value sum. Checkpoint-restore only: bucket counts carry
  /// no exact values, so a deserializer rebuilds counts and patches the
  /// exact sum back in.
  void set_value_sum(std::uint64_t sum) noexcept { sum_ = sum; }

  /// Inclusive lower edge of a bucket.
  [[nodiscard]] std::uint64_t bucket_lo(std::size_t bucket) const;
  [[nodiscard]] std::uint64_t lo() const noexcept { return lo_; }
  [[nodiscard]] std::uint64_t hi() const noexcept { return hi_; }

  /// True when `other` has the same range and bucket grid, i.e. the two
  /// histograms can be merged cell-for-cell.
  [[nodiscard]] bool same_shape(const Histogram& other) const noexcept;

  /// Add every count of `other` into this histogram (shard-merge). Both
  /// histograms must have the same shape; merging is associative and
  /// commutative, so any shard partitioning of the same adds produces
  /// bitwise-identical totals.
  void merge(const Histogram& other);

  /// Zero every count (shape is kept). Used by shard-local histograms
  /// after an epoch-barrier merge.
  void reset() noexcept;

 private:
  std::uint64_t lo_;
  std::uint64_t hi_;
  std::uint64_t width_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t sum_ = 0;
  std::vector<std::uint64_t> counts_;
};

/// Time × address heatmap with fixed bucket grids on both axes.
class Heatmap {
 public:
  /// \param time_hi     exclusive upper bound of the time axis
  /// \param time_bins   number of time buckets (heatmap columns)
  /// \param addr_hi     exclusive upper bound of the address axis
  /// \param addr_bins   number of address buckets (heatmap rows)
  Heatmap(std::uint64_t time_hi, std::size_t time_bins, std::uint64_t addr_hi,
          std::size_t addr_bins);

  void add(std::uint64_t time, std::uint64_t addr, std::uint64_t weight = 1);

  [[nodiscard]] std::uint64_t at(std::size_t time_bin,
                                 std::size_t addr_bin) const;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t max_cell() const noexcept { return max_cell_; }

  /// ASCII rendering: one row per address bucket (top = high addresses),
  /// characters from " .:-=+*#%@" by intensity relative to max_cell().
  [[nodiscard]] std::string render_ascii() const;

  /// CSV rows: time_bin,addr_bin,count (only non-zero cells).
  void write_csv(std::ostream& os) const;

 private:
  [[nodiscard]] std::size_t index(std::size_t t, std::size_t a) const noexcept {
    return a * time_bins_ + t;
  }

  std::uint64_t time_hi_;
  std::uint64_t addr_hi_;
  std::size_t time_bins_;
  std::size_t addr_bins_;
  std::uint64_t total_ = 0;
  std::uint64_t max_cell_ = 0;
  std::vector<std::uint64_t> cells_;
};

}  // namespace tmprof::util
