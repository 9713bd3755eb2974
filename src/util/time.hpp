#pragma once
/// \file time.hpp
/// Simulated-time types. The simulator advances a nanosecond clock.

#include <cstdint>

namespace tmprof::util {

/// Simulated nanoseconds since experiment start.
using SimNs = std::uint64_t;

inline constexpr SimNs kMicrosecond = 1000;
inline constexpr SimNs kMillisecond = 1000 * kMicrosecond;
inline constexpr SimNs kSecond = 1000 * kMillisecond;

}  // namespace tmprof::util
