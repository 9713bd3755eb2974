#pragma once
/// \file numa_maps.hpp
/// The user-space reporting interface (Section III-B3): the paper modifies
/// `/proc/<pid>/numa_maps` so the daemon can read per-mapping placement and
/// profiling statistics. This module renders the same view: one line per
/// contiguous virtual mapping, with page counts per tier and accumulated
/// A-bit / trace sample counts from the page-descriptor store.

#include <string>

#include "core/page_stats.hpp"
#include "sim/system.hpp"

namespace tmprof::core {

/// Render one process's mappings in numa_maps style:
///   <va> <size> pages=<n> tier0=<n> tier1=<n> abit=<n> trace=<n> huge
/// Contiguous same-page-size runs are coalesced into one line.
[[nodiscard]] std::string numa_maps(sim::System& system, mem::Pid pid,
                                    const PageStatsStore& store);

}  // namespace tmprof::core
