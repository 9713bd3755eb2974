#pragma once
/// \file numa_maps.hpp
/// The user-space reporting interface (Section III-B3): the paper modifies
/// `/proc/<pid>/numa_maps` so the daemon can read per-mapping placement and
/// profiling statistics. This module renders the same view: one line per
/// contiguous virtual mapping, with page counts per tier and the A-bit /
/// trace sample counts of one epoch's observation — the per-page counts the
/// daemon ranks from.

#include <string>

#include "core/ranking.hpp"
#include "sim/system.hpp"

namespace tmprof::core {

/// Render one process's mappings in numa_maps style:
///   <va> <size> pages=<n> tier0=<n> tier1=<n> abit=<n> trace=<n> huge
/// Contiguous same-page-size runs are coalesced into one line. Counts are
/// keyed by each mapping's first page address, so a huge page's samples
/// all land on its one entry.
[[nodiscard]] std::string numa_maps(sim::System& system, mem::Pid pid,
                                    const EpochObservation& observed);

}  // namespace tmprof::core
