/// The Section V characterisation: Table IV's co-detection reduction,
/// TMP's trace filter, and the shapes EXPERIMENTS.md states for Table IV
/// and Fig. 5 (`PaperShapes.*`, each bench's default epochs, ops, seed and
/// rates at `--scale=0.1` footprints).

#include "tiering/profile.hpp"

#include <gtest/gtest.h>

#include <map>

#include "../bench/common.hpp"
#include "tiering/epoch.hpp"

namespace tmprof::tiering {
namespace {

/// One epoch of a single trace rate's and the A-bit scan's frames.
EpochFrames epoch(std::vector<mem::Pfn> trace, std::vector<mem::Pfn> abit) {
  return EpochFrames{{std::move(trace)}, std::move(abit)};
}

// Table IV's co-detection reduction, on hand-built epochs.

TEST(PageStats, CountsPerMethod) {
  // Frame 1: A-bit in epochs 0 and 1. Frame 2: rate 0 only. Frame 4: rate
  // 1, in the epoch the A-bit scan saw it.
  const std::vector<EpochFrames> epochs{EpochFrames{{{2}, {4}}, {1, 4}},
                                        EpochFrames{{{}, {}}, {1}}};
  const DetectedPages got = reduce_detections(epochs, 2);
  EXPECT_EQ(got.abit, (FrameCounts{{1, 2}, {4, 1}}));
  EXPECT_EQ(got.trace[0], (FrameCounts{{2, 1}}));
  EXPECT_EQ(got.trace[1], (FrameCounts{{4, 1}}));
  EXPECT_EQ(got.both, (std::vector<std::uint64_t>{0, 1}));
}

TEST(PageStats, BothRequiresSameEpoch) {
  // Frame 5: A-bit an epoch before trace; frame 6: trace an epoch before
  // A-bit. Neither is co-detected. Frames 7 and 8 each have an epoch in
  // which both sources saw them.
  const std::vector<EpochFrames> epochs{epoch({6}, {5}), epoch({5}, {6}),
                                        epoch({7}, {8, 7}), epoch({8}, {}),
                                        epoch({8, 9}, {8})};
  EXPECT_EQ(reduce_detections(epochs, 1).both[0], 2U);
}

TEST(PageStats, BothCountedOncePerFrame) {
  const std::vector<EpochFrames> epochs{epoch({3}, {3}), epoch({3}, {3})};
  EXPECT_EQ(reduce_detections(epochs, 1).both[0], 1U);
}

TEST(PageStats, RepeatSamplesSameEpochDontDoubleCountBoth) {
  const std::vector<EpochFrames> epochs{epoch({3, 3}, {3, 3})};
  const DetectedPages got = reduce_detections(epochs, 1);
  EXPECT_EQ(got.both[0], 1U);
  EXPECT_EQ(got.trace[0], (FrameCounts{{3, 2}}));
  EXPECT_EQ(got.abit, (FrameCounts{{3, 2}}));
}

TEST(TraceFilter, KeepsExactlyDemandLoadsServedByMemory) {
  using mem::DataSource;
  for (const DataSource source :
       {DataSource::L1, DataSource::L2, DataSource::LLC, DataSource::MemTier1,
        DataSource::MemTier2}) {
    const bool memory = source == DataSource::MemTier1 ||
                        source == DataSource::MemTier2;
    for (const bool is_store : {false, true}) {
      monitors::TraceSample sample;
      sample.is_store = is_store;
      sample.source = source;
      EXPECT_EQ(monitors::keeps_trace_sample(sample), memory && !is_store)
          << "source " << static_cast<int>(source) << " store " << is_store;
    }
  }
}

constexpr std::uint32_t kEpochs = 8;

/// Table IV's and Fig. 5's detections for `name`, run once per process.
const DetectedPages& detected(const std::string& name) {
  static std::map<std::string, DetectedPages> cache;
  if (!cache.contains(name)) {
    const workloads::WorkloadSpec spec = workloads::find_spec(name, 0.1);
    sim::System system(bench::testbed_config(spec.total_bytes));
    add_spec_processes(system, spec, 42);
    cache[name] = detect_pages(system, bench::paper_rates(), 42, kEpochs,
                               1'000'000);
  }
  return cache.at(name);
}

std::uint32_t max_count(const FrameCounts& counts) {
  std::uint32_t max = 0;
  for (const auto& [pfn, count] : counts) max = std::max(max, count);
  return max;
}

/// Table IV: (a) on huge random workloads IBS detects far more pages than
/// A-bit, and the gap grows with the rate; (b) a cache-friendly service
/// workload reverses the relation; (d) IBS pages grow from default to 4x
/// to 8x, and 8x adds less over 4x than 4x adds over default.
TEST(PaperShapes, Table4DetectedPages) {
  const auto ibs = [](const std::string& name, std::size_t rate) {
    return static_cast<double>(detected(name).trace[rate].size());
  };
  const auto abit = [](const std::string& name) {
    return static_cast<double>(detected(name).abit.size());
  };
  for (const std::string name : {"gups", "xsbench"}) {
    EXPECT_GT(ibs(name, 0), 10 * abit(name)) << name;
    EXPECT_GT(ibs(name, 1), ibs(name, 0)) << name;
    EXPECT_GT(ibs(name, 2), ibs(name, 1)) << name;
  }
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_GT(abit("web_serving"), ibs("web_serving", r)) << r;
  }
  for (const std::string name : {"gups", "xsbench", "web_serving"}) {
    const double gain_4x = ibs(name, 1) / ibs(name, 0);
    const double gain_8x = ibs(name, 2) / ibs(name, 1);
    EXPECT_GT(gain_8x, 1.0) << name;
    EXPECT_LT(gain_8x, gain_4x) << name;
  }
}

/// Fig. 5: A-bit counts saturate at one observation per scan, while the
/// IBS tail stretches with the sampling rate.
TEST(PaperShapes, Fig5CountDistributions) {
  for (const std::string name : {"gups", "xsbench", "web_serving"}) {
    const DetectedPages& pages = detected(name);
    EXPECT_LE(max_count(pages.abit), kEpochs) << name;
    EXPECT_GT(max_count(pages.trace[1]), max_count(pages.trace[0])) << name;
    EXPECT_GT(max_count(pages.trace[2]), max_count(pages.trace[1])) << name;
  }
}

}  // namespace
}  // namespace tmprof::tiering
