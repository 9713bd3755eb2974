#pragma once
/// \file zipf.hpp
/// Zipfian sampling for skewed workload generators (Data-Caching,
/// Web-Serving, Graph-Analytics degree distributions).

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace tmprof::util {

/// Samples ranks in [0, n) with probability proportional to 1/(rank+1)^theta.
///
/// Uses the rejection-inversion method of Hörmann & Derflinger, which needs
/// O(1) state and O(1) expected time per draw — important because workload
/// generators draw one rank per simulated memory access.
class ZipfDistribution {
 public:
  ZipfDistribution(std::uint64_t n, double theta);

  std::uint64_t operator()(Rng& rng) const;

 private:
  [[nodiscard]] double h(double x) const;
  [[nodiscard]] double h_integral(double x) const;
  [[nodiscard]] double h_integral_inverse(double x) const;

  std::uint64_t n_;
  double theta_;
  double h_integral_x1_;
  double h_integral_n_;
  double s_;
};

/// A hot/cold mixture: a fraction `hot_weight` of draws land uniformly in the
/// first `hot_items`, the rest land uniformly in the remaining items. Used by
/// workloads whose skew the paper describes as a small hot set plus a long
/// cold tail (Web-Serving).
class HotColdDistribution {
 public:
  HotColdDistribution(std::uint64_t items, std::uint64_t hot_items,
                      double hot_weight);

  std::uint64_t operator()(Rng& rng) const;

 private:
  std::uint64_t items_;
  std::uint64_t hot_items_;
  double hot_weight_;
};

}  // namespace tmprof::util
