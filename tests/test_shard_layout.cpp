/// The sharded engine's layout rule (docs/PARALLEL.md, "Lane alignment"):
/// every object a shard's worker writes on each simulated access owns its
/// host cache lines, so pool workers never write one line at once. The
/// private per-access types (System's Core and step_parallel's Shard) are
/// pinned by static_asserts in sim/system.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "mem/cache.hpp"
#include "pmu/counters.hpp"
#include "sim/process.hpp"
#include "sim/system.hpp"
#include "util/cache_line.hpp"
#include "workloads/registry.hpp"
#include "workloads/workload.hpp"

namespace tmprof {
namespace {

bool on_line_boundary(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % util::kCacheLine == 0;
}

TEST(ShardLayout, PerAccessTypesAreCacheLineAligned) {
  // The LRU clock of a private level or an LLC slice.
  EXPECT_GE(alignof(mem::CacheLevel), util::kCacheLine);
  // charge_ops and note_mem_fill.
  EXPECT_GE(alignof(sim::Process), util::kCacheLine);
  // Every generator's RNG state: a derived class inherits the alignment.
  EXPECT_GE(alignof(workloads::Workload), util::kCacheLine);
  // Event counts.
  EXPECT_GE(alignof(pmu::PmuCore), util::kCacheLine);
}

TEST(ShardLayout, ProcessesAndGeneratorsStartOnALine) {
  // Alignment only helps if every allocation honours it; the System's
  // processes and each registered generator are heap objects.
  sim::SimConfig cfg;
  cfg.sharded_engine = true;
  cfg.cores = 4;
  sim::System system(cfg);
  for (const std::string& name : workloads::table3_names()) {
    const double scale = std::max(workloads::min_scale(name), 0.0625);
    const workloads::WorkloadSpec spec = workloads::find_spec(name, scale);
    system.add_process(workloads::make_workload(spec, 0, 1));
  }
  for (sim::Process* proc : system.processes()) {
    EXPECT_TRUE(on_line_boundary(proc)) << proc->workload().name();
    EXPECT_TRUE(on_line_boundary(&proc->workload()))
        << proc->workload().name();
  }
  for (std::uint32_t c = 0; c < cfg.cores; ++c) {
    EXPECT_TRUE(on_line_boundary(&system.pmu().core(c))) << c;
  }
}

}  // namespace
}  // namespace tmprof
