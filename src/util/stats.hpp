#pragma once
/// \file stats.hpp
/// Streaming and batch summary statistics used by benches and the profiler.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tmprof::util {

/// Welford-style streaming mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample (linear interpolation). `q` in [0, 1].
/// Sorts a copy; fine for bench-sized data.
[[nodiscard]] double percentile(std::span<const double> xs, double q);
[[nodiscard]] double percentile(std::span<const std::uint64_t> xs, double q);

/// Geometric mean of strictly positive values (speedup summaries).
[[nodiscard]] double geomean(std::span<const double> xs);

}  // namespace tmprof::util
