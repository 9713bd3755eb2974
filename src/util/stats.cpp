#include "util/stats.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace tmprof::util {

double geomean(std::span<const double> xs) {
  TMPROF_EXPECTS(!xs.empty());
  double log_sum = 0.0;
  for (double x : xs) {
    TMPROF_EXPECTS(x > 0.0);
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace tmprof::util
