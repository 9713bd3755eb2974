#pragma once
/// \file registry.hpp
/// Table III workload setups. Footprints are scaled down ~64x from the
/// paper's testbed (so experiments run in seconds on a laptop-class
/// simulator) while preserving each workload's skew class, page size, and
/// the *relative* footprint ordering that drives the paper's results.
/// The `scale` parameter multiplies all footprints.

#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace tmprof::workloads {

/// Static description of one Table III row, scaled.
struct WorkloadSpec {
  std::string name;              ///< canonical id, e.g. "gups"
  std::string suite;             ///< "CloudSuite" or "HPC"
  std::uint64_t total_bytes;     ///< combined footprint across processes
  std::uint32_t processes;       ///< instance count (scaled from Table III)
  mem::PageSize page_size;       ///< kernel backing (THP for HPC heaps)
};

/// All eight Table III workloads at the given scale (1.0 = default sizes).
[[nodiscard]] std::vector<WorkloadSpec> table3_specs(double scale = 1.0);

/// Look up one spec by name; throws std::out_of_range for unknown names.
[[nodiscard]] WorkloadSpec find_spec(const std::string& name,
                                     double scale = 1.0);

/// Instantiate one process's generator for a spec. `process_index` selects
/// an independent deterministic stream; each process gets
/// total_bytes / processes of private footprint.
[[nodiscard]] WorkloadPtr make_workload(const WorkloadSpec& spec,
                                        std::uint32_t process_index,
                                        std::uint64_t seed);

/// Whether make_workload can build every process of `spec`: each
/// generator has a minimum size, which a small enough scale undercuts.
[[nodiscard]] bool buildable(const WorkloadSpec& spec);

/// Smallest `scale` at which find_spec(name, scale) is buildable (every
/// larger scale is too), or 0 when every positive scale is; throws
/// std::out_of_range for unknown names.
[[nodiscard]] double min_scale(const std::string& name);

/// Convenience: names of all Table III workloads in paper order.
[[nodiscard]] std::vector<std::string> table3_names();

}  // namespace tmprof::workloads
