#include "workloads/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "util/assert.hpp"
#include "util/ckpt.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::workloads {
namespace {

TEST(Synthetic, UniformStaysInFootprint) {
  UniformWorkload w(1 << 20, 0.5, 1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(w.next().offset, 1U << 20);
  }
}

TEST(Synthetic, SequentialWrapsAround) {
  SequentialWorkload w(256, 64, 0.0, 1);
  EXPECT_EQ(w.next().offset, 0U);
  EXPECT_EQ(w.next().offset, 64U);
  EXPECT_EQ(w.next().offset, 128U);
  EXPECT_EQ(w.next().offset, 192U);
  EXPECT_EQ(w.next().offset, 0U);
}

TEST(Synthetic, ZipfSkewsTowardsLowRecords) {
  ZipfWorkload w(1 << 20, 4096, 0.99, 0.0, 1);
  std::uint64_t head = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    if (w.next().offset < 16 * 4096) ++head;
  }
  // Top 16 of 256 records get far more than their uniform share (6%).
  EXPECT_GT(head, draws / 5);
}

TEST(Synthetic, StoreFractionRespected) {
  UniformWorkload w(1 << 16, 0.25, 2);
  int stores = 0;
  const int draws = 40000;
  for (int i = 0; i < draws; ++i) stores += w.next().is_store ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(stores) / draws, 0.25, 0.02);
}

TEST(Registry, HasAllEightTable3Workloads) {
  const auto specs = table3_specs();
  ASSERT_EQ(specs.size(), 8U);
  const auto names = table3_names();
  const std::unordered_set<std::string> set(names.begin(), names.end());
  for (const char* name :
       {"data_analytics", "data_caching", "graph500", "graph_analytics",
        "gups", "lulesh", "web_serving", "xsbench"}) {
    EXPECT_TRUE(set.count(name)) << name;
  }
}

TEST(Registry, HpcWorkloadsUseHugePages) {
  for (const auto& spec : table3_specs()) {
    const bool is_hpc = spec.suite == "HPC";
    EXPECT_EQ(spec.page_size == mem::PageSize::k2M, is_hpc) << spec.name;
  }
}

TEST(Registry, FootprintOrderingMatchesPaper) {
  // XSBench is the biggest, web_serving among the smallest (Table III).
  const auto xs = find_spec("xsbench");
  const auto web = find_spec("web_serving");
  const auto caching = find_spec("data_caching");
  EXPECT_GT(xs.total_bytes, caching.total_bytes);
  EXPECT_GT(caching.total_bytes, web.total_bytes);
}

TEST(Registry, ScaleMultipliesFootprints) {
  const auto big = find_spec("gups", 2.0);
  const auto base = find_spec("gups", 1.0);
  EXPECT_GE(big.total_bytes, base.total_bytes * 2 - mem::kHugePageSize);
}

// buildable() mirrors the generators' own size checks: at min_scale every
// process builds, and one huge page less fails a generator's precondition.
TEST(Registry, MinScaleIsTheSmallestBuildableScale) {
  int bounded = 0;
  for (const std::string& name : table3_names()) {
    const double scale = min_scale(name);
    const WorkloadSpec at = find_spec(name, scale > 0.0 ? scale : 1e-9);
    EXPECT_TRUE(buildable(at)) << name;
    for (std::uint32_t p = 0; p < at.processes; ++p) {
      EXPECT_NO_THROW((void)make_workload(at, p, 1)) << name << " " << p;
    }
    if (scale == 0.0) {
      EXPECT_EQ(at.total_bytes, mem::kHugePageSize) << name;  // the floor
      continue;
    }
    ++bounded;
    EXPECT_FALSE(buildable(find_spec(name, std::nextafter(scale, 0.0))))
        << name;
    WorkloadSpec below = at;
    below.total_bytes -= mem::kHugePageSize;
    EXPECT_FALSE(buildable(below)) << name;
    bool threw = false;
    for (std::uint32_t p = 0; p < below.processes; ++p) {
      try {
        (void)make_workload(below, p, 1);
      } catch (const util::AssertionError&) {
        threw = true;
      }
    }
    EXPECT_TRUE(threw) << name;
  }
  EXPECT_GT(bounded, 0);  // non-vacuous: some workload has a floor
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(find_spec("nope"), std::out_of_range);
}

/// Property sweep over every Table III workload: generators stay in their
/// footprint, are deterministic under a seed, and differ across processes.
class AllWorkloads : public ::testing::TestWithParam<std::string> {};

TEST_P(AllWorkloads, OffsetsStayInFootprint) {
  const auto spec = find_spec(GetParam(), 0.25);
  const auto w = make_workload(spec, 0, 42);
  const std::uint64_t footprint = w->footprint_bytes();
  EXPECT_GT(footprint, 0U);
  for (int i = 0; i < 50000; ++i) {
    const MemRef ref = w->next();
    ASSERT_LT(ref.offset, footprint) << spec.name << " @ " << i;
  }
}

TEST_P(AllWorkloads, DeterministicUnderSeed) {
  const auto spec = find_spec(GetParam(), 0.25);
  const auto a = make_workload(spec, 0, 7);
  const auto b = make_workload(spec, 0, 7);
  for (int i = 0; i < 2000; ++i) {
    const MemRef ra = a->next();
    const MemRef rb = b->next();
    ASSERT_EQ(ra.offset, rb.offset);
    ASSERT_EQ(ra.is_store, rb.is_store);
  }
}

TEST_P(AllWorkloads, ProcessStreamsDiffer) {
  const auto spec = find_spec(GetParam(), 0.25);
  if (spec.processes < 2) GTEST_SKIP();
  const auto a = make_workload(spec, 0, 7);
  const auto b = make_workload(spec, 1, 7);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a->next().offset == b->next().offset) ++equal;
  }
  // Streams may overlap on sequential phases but not be identical.
  EXPECT_LT(equal, 1000);
}

TEST_P(AllWorkloads, EmitsSomeStoresAndSomeLoads) {
  const auto spec = find_spec(GetParam(), 0.25);
  const auto w = make_workload(spec, 0, 11);
  int stores = 0;
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) stores += w->next().is_store ? 1 : 0;
  EXPECT_GT(stores, 0) << spec.name;
  EXPECT_LT(stores, draws) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    Table3, AllWorkloads,
    ::testing::Values("data_analytics", "data_caching", "graph500",
                      "graph_analytics", "gups", "lulesh", "web_serving",
                      "xsbench"));

TEST(Gups, AlternatesLoadStorePairs) {
  const auto spec = find_spec("gups", 0.25);
  const auto w = make_workload(spec, 0, 1);
  for (int i = 0; i < 100; ++i) {
    const MemRef load = w->next();
    const MemRef store = w->next();
    EXPECT_FALSE(load.is_store);
    EXPECT_TRUE(store.is_store);
    EXPECT_EQ(load.offset, store.offset);  // read-modify-write
  }
}

// ---------------------------------------------------------------------------
// Storm generators (docs/ADMISSION.md): the admission bench's adversaries.

constexpr std::uint64_t kSlot = 64 * 4096;  // 64-page phase slots

TEST(StormWorkloads, PhaseShiftFlipsSlotsAtPhaseBoundaries) {
  // stable_fraction 0: every reference goes to the currently-hot slot, so
  // the emitted offsets must track slot_at(op) exactly.
  PhaseShiftWorkload w(kSlot, kSlot, 2, 100, 0.0, 7);
  for (std::uint64_t op = 0; op < 1000; ++op) {
    const std::uint32_t slot = w.slot_at(op);
    const MemRef ref = w.next();
    const std::uint64_t lo = kSlot + slot * kSlot;
    EXPECT_GE(ref.offset, lo) << "op " << op;
    EXPECT_LT(ref.offset, lo + kSlot) << "op " << op;
    EXPECT_EQ(ref.ip, 2U);  // slot-region phase marker
  }
}

TEST(StormWorkloads, PhaseShiftStableRegionStaysPut) {
  PhaseShiftWorkload w(kSlot, kSlot, 2, 100, 1.0, 7);
  for (int i = 0; i < 1000; ++i) {
    const MemRef ref = w.next();
    EXPECT_LT(ref.offset, kSlot);
    EXPECT_EQ(ref.ip, 1U);  // stable-region phase marker
  }
}

TEST(StormWorkloads, SameSeedSameStream) {
  PhaseShiftWorkload a(kSlot, kSlot, 3, 64, 0.5, 11);
  PhaseShiftWorkload b(kSlot, kSlot, 3, 64, 0.5, 11);
  ZipfChurnWorkload c(1 << 20, 4096, 0.9, 64, 16, 11);
  ZipfChurnWorkload d(1 << 20, 4096, 0.9, 64, 16, 11);
  for (int i = 0; i < 5000; ++i) {
    const MemRef ra = a.next(), rb = b.next();
    EXPECT_EQ(ra.offset, rb.offset);
    EXPECT_EQ(ra.is_store, rb.is_store);
    EXPECT_EQ(ra.ip, rb.ip);
    const MemRef rc = c.next(), rd = d.next();
    EXPECT_EQ(rc.offset, rd.offset);
    EXPECT_EQ(rc.is_store, rd.is_store);
  }
}

TEST(StormWorkloads, ZipfChurnRotatesTheHotHead) {
  // Rank 0 is the Zipf mode; the churn shifts its record by churn_records
  // each phase, so the modal record must slide across phases.
  const std::uint64_t phase_ops = 20000, churn = 32;
  ZipfChurnWorkload w(1 << 20, 4096, 0.99, phase_ops, churn, 5);
  for (std::uint64_t phase = 0; phase < 3; ++phase) {
    std::vector<std::uint64_t> counts(256, 0);
    for (std::uint64_t i = 0; i < phase_ops; ++i) {
      ++counts[w.next().offset / 4096];
    }
    std::uint64_t modal = 0;
    for (std::uint64_t r = 1; r < counts.size(); ++r) {
      if (counts[r] > counts[modal]) modal = r;
    }
    EXPECT_EQ(modal, (phase * churn) % 256) << "phase " << phase;
  }
}

TEST(StormWorkloads, CheckpointRoundTripsMidStream) {
  // Save mid-phase, keep drawing the reference stream, then load into a
  // fresh instance: the resumed stream (rng AND phase clock) must match.
  PhaseShiftWorkload ps(kSlot, kSlot, 2, 150, 0.5, 13);
  ZipfChurnWorkload zc(1 << 20, 4096, 0.9, 150, 16, 13);
  for (int i = 0; i < 1000; ++i) {
    (void)ps.next();
    (void)zc.next();
  }
  util::ckpt::Writer w;
  w.begin_section("ps");
  ps.save_state(w);
  w.end_section();
  w.begin_section("zc");
  zc.save_state(w);
  w.end_section();
  const std::vector<std::uint8_t> image = w.finish();

  util::ckpt::Reader r(image);
  PhaseShiftWorkload ps2(kSlot, kSlot, 2, 150, 0.5, 99);
  ZipfChurnWorkload zc2(1 << 20, 4096, 0.9, 150, 16, 99);
  r.enter_section("ps");
  ps2.load_state(r);
  r.end_section();
  r.enter_section("zc");
  zc2.load_state(r);
  r.end_section();
  for (int i = 0; i < 2000; ++i) {
    const MemRef a = ps.next(), b = ps2.next();
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.is_store, b.is_store);
    EXPECT_EQ(a.ip, b.ip);
    const MemRef c = zc.next(), d = zc2.next();
    EXPECT_EQ(c.offset, d.offset);
    EXPECT_EQ(c.is_store, d.is_store);
  }
}

TEST(WebServing, TrafficConcentratesOnHotSet) {
  const auto spec = find_spec("web_serving", 0.5);
  const auto w = make_workload(spec, 0, 3);
  const std::uint64_t footprint = w->footprint_bytes();
  const std::uint64_t hot_boundary = footprint / 16;  // generous hot bound
  std::uint64_t hot = 0;
  const int draws = 40000;
  for (int i = 0; i < draws; ++i) {
    if (w->next().offset < hot_boundary) ++hot;
  }
  EXPECT_GT(hot, draws / 2);
}

}  // namespace
}  // namespace tmprof::workloads
