#pragma once
/// \file cdf.hpp
/// Empirical CDFs over per-page access counts (paper Fig. 5).

#include <cstdint>
#include <span>
#include <vector>

namespace tmprof::util {

/// Empirical cumulative distribution built from a sample of values.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<std::uint64_t> samples);

  /// Fraction of samples <= value, in [0, 1].
  [[nodiscard]] double at(std::uint64_t value) const;

  /// Smallest value v such that at(v) >= q.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }
  [[nodiscard]] std::uint64_t min() const;
  [[nodiscard]] std::uint64_t max() const;

  /// Evenly spaced (value, cumulative-fraction) rows for plotting; `points`
  /// rows spanning quantiles (0, 1].
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> curve(
      std::size_t points) const;

 private:
  std::vector<std::uint64_t> sorted_;
};

}  // namespace tmprof::util
