#include "workloads/registry.hpp"

#include <cmath>
#include <stdexcept>

#include "util/assert.hpp"
#include "workloads/data_analytics.hpp"
#include "workloads/data_caching.hpp"
#include "workloads/graph500.hpp"
#include "workloads/graph_analytics.hpp"
#include "workloads/gups.hpp"
#include "workloads/lulesh.hpp"
#include "workloads/web_serving.hpp"
#include "workloads/xsbench.hpp"

namespace tmprof::workloads {

namespace {
constexpr std::uint64_t kMiB = 1ULL << 20;

std::uint64_t scaled(double scale, std::uint64_t bytes) {
  const auto s = static_cast<std::uint64_t>(static_cast<double>(bytes) * scale);
  // Keep footprints huge-page aligned so THP workloads tile cleanly.
  const std::uint64_t aligned = s & ~(mem::kHugePageSize - 1);
  return aligned >= mem::kHugePageSize ? aligned : mem::kHugePageSize;
}
}  // namespace

std::vector<WorkloadSpec> table3_specs(double scale) {
  TMPROF_EXPECTS(scale > 0.0);
  // Paper Table III, footprints divided by ~64, process counts divided by
  // ~8 (the simulator round-robins processes over 6 cores as the testbed's
  // oversubscribed deployment does).
  return {
      {"data_analytics", "CloudSuite", scaled(scale, 96 * kMiB), 4,
       mem::PageSize::k4K},
      {"data_caching", "CloudSuite", scaled(scale, 384 * kMiB), 4,
       mem::PageSize::k4K},
      {"graph500", "HPC", scaled(scale, 96 * kMiB), 4, mem::PageSize::k2M},
      {"graph_analytics", "CloudSuite", scaled(scale, 128 * kMiB), 4,
       mem::PageSize::k4K},
      {"gups", "HPC", scaled(scale, 512 * kMiB), 4, mem::PageSize::k2M},
      {"lulesh", "HPC", scaled(scale, 320 * kMiB), 4, mem::PageSize::k2M},
      {"web_serving", "CloudSuite", scaled(scale, 128 * kMiB), 3,
       mem::PageSize::k4K},
      {"xsbench", "HPC", scaled(scale, 768 * kMiB), 4, mem::PageSize::k2M},
  };
}

std::vector<std::string> table3_names() {
  std::vector<std::string> names;
  for (const auto& spec : table3_specs()) names.push_back(spec.name);
  return names;
}

WorkloadSpec find_spec(const std::string& name, double scale) {
  for (auto& spec : table3_specs(scale)) {
    if (spec.name == name) return spec;
  }
  throw std::out_of_range("unknown workload: " + name);
}

WorkloadPtr make_workload(const WorkloadSpec& spec,
                          std::uint32_t process_index, std::uint64_t seed) {
  TMPROF_EXPECTS(process_index < spec.processes);
  const std::uint64_t per_proc = spec.total_bytes / spec.processes;
  // Derive a per-process stream that differs even under the same base seed.
  std::uint64_t mix = seed ^ (0x9e3779b97f4a7c15ULL * (process_index + 1));
  const std::uint64_t proc_seed = util::splitmix64(mix);

  if (spec.name == "data_analytics") {
    // 7/8 scanned input, 1/8 shuffle hash space.
    return std::make_unique<DataAnalyticsWorkload>(per_proc * 7 / 8,
                                                   per_proc / 8, proc_seed);
  }
  if (spec.name == "data_caching") {
    return std::make_unique<DataCachingWorkload>(per_proc * 16 / 17, 1024,
                                                 proc_seed);
  }
  if (spec.name == "graph500") {
    // Solve V from footprint ≈ V*8 + 16V*8 + V/8.
    const std::uint64_t vertices = per_proc / 137;
    return std::make_unique<Graph500Workload>(vertices, proc_seed);
  }
  if (spec.name == "graph_analytics") {
    return std::make_unique<GraphAnalyticsWorkload>(per_proc / 16, proc_seed);
  }
  if (spec.name == "gups") {
    return std::make_unique<GupsWorkload>(per_proc, proc_seed);
  }
  if (spec.name == "lulesh") {
    return std::make_unique<LuleshWorkload>(per_proc, proc_seed);
  }
  if (spec.name == "web_serving") {
    return std::make_unique<WebServingWorkload>(per_proc, proc_seed);
  }
  if (spec.name == "xsbench") {
    // 1/32 hot unionized grid, the rest nuclide grid.
    return std::make_unique<XsbenchWorkload>(per_proc * 31 / 32,
                                             per_proc / 32, proc_seed);
  }
  throw std::out_of_range("unknown workload: " + spec.name);
}

bool buildable(const WorkloadSpec& spec) {
  // The generators' size preconditions, on make_workload's split of the
  // per-process footprint.
  const std::uint64_t per_proc = spec.total_bytes / spec.processes;
  if (spec.name == "data_analytics") {
    return per_proc * 7 / 8 >= (1U << 20) && per_proc / 8 >= (1U << 16);
  }
  if (spec.name == "data_caching") return per_proc * 16 / 17 >= 1024 * 64;
  if (spec.name == "graph500") return per_proc / 137 >= 4096;
  if (spec.name == "graph_analytics") return per_proc / 16 >= 4096;
  if (spec.name == "gups") return per_proc >= mem::kHugePageSize;
  if (spec.name == "lulesh") return per_proc >= 8 * 64 * 1024;  // 8 arrays
  if (spec.name == "web_serving") return per_proc >= (1U << 20);
  if (spec.name == "xsbench") {
    return per_proc * 31 / 32 >= mem::kHugePageSize && per_proc / 32 >= 4096;
  }
  throw std::out_of_range("unknown workload: " + spec.name);
}

double min_scale(const std::string& name) {
  // Scaled footprints step in huge pages from a one-huge-page floor, so
  // the answer is the scale of the first buildable step, moved to the
  // exact double boundary of scaled()'s rounding.
  const WorkloadSpec full = find_spec(name, 1.0);
  WorkloadSpec spec = full;
  spec.total_bytes = mem::kHugePageSize;
  if (buildable(spec)) return 0.0;
  while (!buildable(spec)) spec.total_bytes += mem::kHugePageSize;
  double scale = static_cast<double>(spec.total_bytes) /
                 static_cast<double>(full.total_bytes);
  const auto at = [&name](double s) { return buildable(find_spec(name, s)); };
  while (!at(scale)) scale = std::nextafter(scale, 1.0);
  while (at(std::nextafter(scale, 0.0))) scale = std::nextafter(scale, 0.0);
  return scale;
}

}  // namespace tmprof::workloads
