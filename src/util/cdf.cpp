#include "util/cdf.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace tmprof::util {

EmpiricalCdf::EmpiricalCdf(std::vector<std::uint64_t> samples)
    : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(std::uint64_t value) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), value);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

std::uint64_t EmpiricalCdf::quantile(double q) const {
  TMPROF_EXPECTS(!sorted_.empty());
  TMPROF_EXPECTS(q >= 0.0 && q <= 1.0);
  const auto n = static_cast<double>(sorted_.size());
  auto idx = static_cast<std::size_t>(std::ceil(q * n));
  if (idx > 0) --idx;
  idx = std::min(idx, sorted_.size() - 1);
  return sorted_[idx];
}

std::uint64_t EmpiricalCdf::min() const {
  TMPROF_EXPECTS(!sorted_.empty());
  return sorted_.front();
}

std::uint64_t EmpiricalCdf::max() const {
  TMPROF_EXPECTS(!sorted_.empty());
  return sorted_.back();
}

std::vector<std::pair<std::uint64_t, double>> EmpiricalCdf::curve(
    std::size_t points) const {
  TMPROF_EXPECTS(points >= 2);
  std::vector<std::pair<std::uint64_t, double>> rows;
  if (sorted_.empty()) return rows;
  rows.reserve(points);
  for (std::size_t i = 1; i <= points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points);
    const std::uint64_t v = quantile(q);
    rows.emplace_back(v, at(v));
  }
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

}  // namespace tmprof::util
