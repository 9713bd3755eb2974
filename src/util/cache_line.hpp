#pragma once
/// \file cache_line.hpp
/// Host cache-line size, for the layout rule of the sharded engine
/// (docs/PARALLEL.md, "Lane alignment"): every object a shard's worker
/// writes on each simulated access is `alignas(kCacheLine)`, so no two
/// shards' writes land on one host line.

#include <cstddef>

namespace tmprof::util {

/// Bytes per host cache line (x86-64 and the common AArch64 parts). Not
/// std::hardware_destructive_interference_size: GCC warns that its value
/// is not ABI-stable, and this one sizes types in public headers.
inline constexpr std::size_t kCacheLine = 64;

}  // namespace tmprof::util
