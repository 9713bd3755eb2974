#include "util/zipf.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace tmprof::util {

ZipfDistribution::ZipfDistribution(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  TMPROF_EXPECTS(n >= 1);
  TMPROF_EXPECTS(theta > 0.0 && theta != 1.0);
  h_integral_x1_ = h_integral(1.5) - 1.0;
  h_integral_n_ = h_integral(static_cast<double>(n) + 0.5);
  s_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

double ZipfDistribution::h(double x) const { return std::pow(x, -theta_); }

double ZipfDistribution::h_integral(double x) const {
  // H(x) = (x^(1-theta) - 1) / (1-theta); the form whose inverse
  // h_integral_inverse computes (theta != 1 by precondition).
  const double log_x = std::log(x);
  return std::expm1((1.0 - theta_) * log_x) / (1.0 - theta_);
}

double ZipfDistribution::h_integral_inverse(double x) const {
  double t = x * (1.0 - theta_);
  if (t < -1.0) t = -1.0;  // numeric guard near the distribution head
  return std::exp(std::log1p(t) / (1.0 - theta_));
}

std::uint64_t ZipfDistribution::operator()(Rng& rng) const {
  if (n_ == 1) return 0;
  while (true) {
    const double u =
        h_integral_n_ + rng.uniform() * (h_integral_x1_ - h_integral_n_);
    const double x = h_integral_inverse(u);
    std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    const double kd = static_cast<double>(k);
    if (kd - x <= s_ || u >= h_integral(kd + 0.5) - h(kd)) {
      return k - 1;  // return 0-based rank
    }
  }
}

HotColdDistribution::HotColdDistribution(std::uint64_t items,
                                         std::uint64_t hot_items,
                                         double hot_weight)
    : items_(items), hot_items_(hot_items), hot_weight_(hot_weight) {
  TMPROF_EXPECTS(items >= 1);
  TMPROF_EXPECTS(hot_items >= 1 && hot_items <= items);
  TMPROF_EXPECTS(hot_weight >= 0.0 && hot_weight <= 1.0);
}

std::uint64_t HotColdDistribution::operator()(Rng& rng) const {
  if (hot_items_ == items_ || rng.chance(hot_weight_)) {
    return rng.below(hot_items_);
  }
  return hot_items_ + rng.below(items_ - hot_items_);
}

}  // namespace tmprof::util
