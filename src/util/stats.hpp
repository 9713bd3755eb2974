#pragma once
/// \file stats.hpp
/// Summary statistics used by benches.

#include <span>

namespace tmprof::util {

/// Geometric mean of strictly positive values (speedup summaries).
[[nodiscard]] double geomean(std::span<const double> xs);

}  // namespace tmprof::util
