#include "util/ckpt.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/ranking.hpp"
#include "monitors/devmon.hpp"
#include "pmu/counters.hpp"
#include "sim/system.hpp"
#include "telemetry/telemetry.hpp"
#include "tiering/admission.hpp"
#include "tiering/epoch.hpp"
#include "tiering/runner.hpp"
#include "tiering/tenant.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::util::ckpt {
namespace {

namespace fs = std::filesystem;

/// Fresh empty directory under the gtest temp root.
fs::path temp_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("tmprof-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Format primitives.

TEST(CkptFormat, PrimitivesRoundTrip) {
  Writer w;
  w.begin_section("prims");
  w.put_u8(0);
  w.put_u8(255);
  w.put_u32(0xdeadbeef);
  w.put_u64(std::numeric_limits<std::uint64_t>::max());
  w.put_i64(std::numeric_limits<std::int64_t>::min());
  w.put_bool(true);
  w.put_bool(false);
  w.put_f64(-0.0);
  w.put_f64(std::numeric_limits<double>::infinity());
  w.put_f64(std::numeric_limits<double>::denorm_min());
  w.put_str("");
  w.put_str("tiered memory");
  const std::uint8_t blob[3] = {1, 2, 3};
  w.put_bytes(blob, sizeof blob);
  w.end_section();

  Reader r(w.finish());
  r.enter_section("prims");
  EXPECT_EQ(r.get_u8(), 0);
  EXPECT_EQ(r.get_u8(), 255);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefU);
  EXPECT_EQ(r.get_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.get_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  const double neg_zero = r.get_f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.get_f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.get_f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.get_str(), "");
  EXPECT_EQ(r.get_str(), "tiered memory");
  std::uint8_t out[3] = {};
  r.get_bytes(out, sizeof out);
  EXPECT_EQ(std::memcmp(out, blob, sizeof blob), 0);
  r.end_section();
}

TEST(CkptFormat, NanPayloadBitsSurvive) {
  // A quiet NaN with a distinctive payload must round-trip bit-exactly;
  // value comparison can't see it, so compare the raw bit patterns.
  const std::uint64_t nan_bits = 0x7ff8dead'beef1234ULL;
  double nan_value = 0;
  std::memcpy(&nan_value, &nan_bits, sizeof nan_value);

  Writer w;
  w.begin_section("nan");
  w.put_f64(nan_value);
  w.end_section();
  Reader r(w.finish());
  r.enter_section("nan");
  const double back = r.get_f64();
  std::uint64_t back_bits = 0;
  std::memcpy(&back_bits, &back, sizeof back_bits);
  EXPECT_EQ(back_bits, nan_bits);
  r.end_section();
}

TEST(CkptFormat, SectionDirectoryAndEmptySections) {
  Writer w;
  w.begin_section("alpha");
  w.end_section();  // empty payload is legal
  w.begin_section("beta");
  w.put_u32(7);
  w.end_section();
  Reader r(w.finish());
  EXPECT_EQ(r.section_names(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_TRUE(r.has_section("alpha"));
  EXPECT_FALSE(r.has_section("gamma"));
  r.enter_section("alpha");
  r.end_section();
  // Out-of-order access is fine: sections are a directory, not a stream.
  r.enter_section("beta");
  EXPECT_EQ(r.get_u32(), 7U);
  r.end_section();
}

TEST(CkptFormat, EmptyImageRoundTrips) {
  Writer w;
  Reader r(w.finish());
  EXPECT_TRUE(r.section_names().empty());
}

TEST(CkptFormat, MissingSectionThrowsWithName) {
  Writer w;
  w.begin_section("present");
  w.end_section();
  Reader r(w.finish());
  try {
    r.enter_section("absent");
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.section(), "absent");
  }
}

TEST(CkptFormat, TrailingUnreadBytesThrow) {
  // Reader/writer field-list skew shows up as unconsumed payload; the
  // section close must catch it and name the section.
  Writer w;
  w.begin_section("skewed");
  w.put_u64(1);
  w.put_u64(2);
  w.end_section();
  Reader r(w.finish());
  r.enter_section("skewed");
  EXPECT_EQ(r.get_u64(), 1U);
  try {
    r.end_section();
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.section(), "skewed");
  }
}

TEST(CkptFormat, ReadPastSectionEndThrows) {
  Writer w;
  w.begin_section("short");
  w.put_u8(9);
  w.end_section();
  Reader r(w.finish());
  r.enter_section("short");
  EXPECT_EQ(r.get_u8(), 9);
  EXPECT_THROW(r.get_u64(), CkptError);
}

// ---------------------------------------------------------------------------
// Corruption matrix. The sample image mirrors a real checkpoint: several
// sections of different sizes, including an empty one.

std::vector<std::uint8_t> sample_image() {
  Writer w;
  w.begin_section("meta");
  w.put_str("runner");
  w.put_u64(42);
  w.end_section();
  w.begin_section("empty");
  w.end_section();
  w.begin_section("state");
  for (std::uint32_t i = 0; i < 16; ++i) w.put_u64(i * 0x0101010101010101ULL);
  w.end_section();
  return w.finish();
}

/// A checkpoint image holding real sketch-mode sections (count-min cells,
/// Bloom words, a sketch-mode HotnessStore) so the corruption matrix below
/// also covers the probabilistic state introduced by docs/SKETCH.md.
std::vector<std::uint8_t> sketch_image() {
  util::CountMinSketch cms(64, 3, 7);
  util::BloomFilter bloom(256, 4, 7);
  core::HotnessConfig cfg;
  cfg.mode = core::HotnessMode::Sketch;
  cfg.sketch.width = 64;
  cfg.sketch.depth = 2;
  cfg.candidates = 32;
  tmprof::core::HotnessCounts store(cfg);
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t page = rng.below(64);
    cms.add(page, 1);
    bloom.insert(page);
    store.add(core::PageKey{1, page << mem::kPageShift});
  }
  Writer w;
  w.begin_section("cms");
  cms.save_state(w);
  w.end_section();
  w.begin_section("bloom");
  bloom.save_state(w);
  w.end_section();
  w.begin_section("store");
  store.save_state(w, "store");
  w.end_section();
  return w.finish();
}

/// A checkpoint image holding a populated AdmissionController (per-page
/// rank history, live cool-downs, a drained token bucket, retuned adaptive
/// threshold and the internal registry) so the corruption matrix also
/// covers the admission state introduced by docs/ADMISSION.md.
std::vector<std::uint8_t> admission_image() {
  tiering::AdmissionConfig cfg;
  cfg.mode = tiering::AdmissionMode::Adaptive;
  cfg.min_history = 1;
  cfg.bandwidth_bytes_per_sec = 64ULL << mem::kPageShift;
  cfg.burst_bytes = 16ULL << mem::kPageShift;
  cfg.cooldown_epochs = 2;
  cfg.max_moves_per_epoch = 8;
  tiering::AdmissionController adm(cfg);
  util::Rng rng(11);
  for (std::uint32_t epoch = 1; epoch <= 6; ++epoch) {
    std::vector<core::PageRank> ranking;
    for (std::uint64_t p = 0; p < 24; ++p) {
      if (rng.below(3) == 0) continue;
      core::PageRank r;
      r.key = core::PageKey{1, p << mem::kPageShift};
      r.rank = 1 + rng.below(16);
      ranking.push_back(r);
    }
    adm.begin_epoch(epoch * util::kMillisecond, ranking);
    for (const core::PageRank& r : ranking) {
      const auto verdict = adm.decide(r.key, mem::kPageSize);
      if (verdict == tiering::AdmissionDecision::Admit && rng.below(2) == 0) {
        adm.note_demoted(r.key);  // arm the ping-pong detector
      }
    }
  }
  Writer w;
  w.begin_section("admission");
  adm.save_state(w);
  w.end_section();
  return w.finish();
}

/// A checkpoint image holding a populated DevMonitor over a three-tier
/// chain (occupied counter slots on two devices, live statistics, and
/// unmerged per-core lane tallies) so the corruption matrix also covers
/// the device-counter state introduced by docs/TOPOLOGY.md.
std::vector<std::uint8_t> devmon_image() {
  const mem::PhysMemory phys({mem::TierSpec{"dram", 16, 80, 80, 0},
                              mem::TierSpec{"cxl", 32, 150, 200, 0},
                              mem::TierSpec{"nvm", 64, 300, 600, 0}});
  monitors::DevMonConfig cfg;
  cfg.enabled = true;
  cfg.slots = 8;
  cfg.top_k = 4;
  monitors::DevMonitor mon(cfg, phys, 2);
  Rng rng(7);
  const auto fill = [&mon](mem::Pfn pfn, std::uint32_t core) {
    monitors::MemOpEvent ev;
    ev.core = core;
    ev.paddr = pfn << mem::kPageShift;
    ev.source = mem::DataSource::MemTier2;
    mon.on_mem_op(ev);
  };
  // Slow-tier pfns are 16..111; overfill the 8-slot arrays so evictions
  // and saturated counters ride in the image too.
  for (int i = 0; i < 300; ++i) {
    fill(16 + rng.below(96), static_cast<std::uint32_t>(rng.below(2)));
  }
  mon.drain();  // merged + decayed device arrays
  for (int i = 0; i < 50; ++i) {
    fill(16 + rng.below(96), static_cast<std::uint32_t>(rng.below(2)));
  }
  Writer w;
  w.begin_section("devmon");
  mon.save_state(w);
  w.end_section();
  return w.finish();
}

/// True when the (possibly corrupted) image is safely rejected: the parse
/// throws a typed CkptError, or it parses but no longer serves the exact
/// section set of the intact file (a truncation at a frame boundary yields
/// a valid shorter file — resume then fails on the missing section).
bool rejected_or_degraded(const std::vector<std::uint8_t>& image,
                          const std::vector<std::string>& want_names) {
  try {
    Reader r(image);
    return r.section_names() != want_names;
  } catch (const CkptError&) {
    return true;
  }
}

TEST(CkptCorruption, TruncationAtEveryLengthRejected) {
  const std::vector<std::uint8_t> image = sample_image();
  const std::vector<std::string> names =
      Reader(image).section_names();
  for (std::size_t len = 0; len < image.size(); ++len) {
    const std::vector<std::uint8_t> prefix(
        image.begin(), image.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_TRUE(rejected_or_degraded(prefix, names))
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(CkptCorruption, EverySingleBitFlipRejected) {
  const std::vector<std::uint8_t> image = sample_image();
  const std::vector<std::string> names = Reader(image).section_names();
  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = image;
      flipped[byte] = static_cast<std::uint8_t>(
          flipped[byte] ^ (1U << bit));
      EXPECT_TRUE(rejected_or_degraded(flipped, names))
          << "bit flip at byte " << byte << " bit " << bit << " accepted";
    }
  }
}

TEST(CkptCorruption, SketchSectionsTruncationAtEveryLengthRejected) {
  const std::vector<std::uint8_t> image = sketch_image();
  const std::vector<std::string> names = Reader(image).section_names();
  for (std::size_t len = 0; len < image.size(); ++len) {
    const std::vector<std::uint8_t> prefix(
        image.begin(), image.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_TRUE(rejected_or_degraded(prefix, names))
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(CkptCorruption, SketchSectionsEverySingleBitFlipRejected) {
  const std::vector<std::uint8_t> image = sketch_image();
  const std::vector<std::string> names = Reader(image).section_names();
  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = image;
      flipped[byte] = static_cast<std::uint8_t>(flipped[byte] ^ (1U << bit));
      EXPECT_TRUE(rejected_or_degraded(flipped, names))
          << "bit flip at byte " << byte << " bit " << bit << " accepted";
    }
  }
}

TEST(CkptCorruption, AdmissionSectionTruncationAtEveryLengthRejected) {
  const std::vector<std::uint8_t> image = admission_image();
  const std::vector<std::string> names = Reader(image).section_names();
  for (std::size_t len = 0; len < image.size(); ++len) {
    const std::vector<std::uint8_t> prefix(
        image.begin(), image.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_TRUE(rejected_or_degraded(prefix, names))
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(CkptCorruption, AdmissionSectionEverySingleBitFlipRejected) {
  const std::vector<std::uint8_t> image = admission_image();
  const std::vector<std::string> names = Reader(image).section_names();
  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = image;
      flipped[byte] = static_cast<std::uint8_t>(flipped[byte] ^ (1U << bit));
      EXPECT_TRUE(rejected_or_degraded(flipped, names))
          << "bit flip at byte " << byte << " bit " << bit << " accepted";
    }
  }
}

TEST(CkptCorruption, DevmonSectionTruncationAtEveryLengthRejected) {
  const std::vector<std::uint8_t> image = devmon_image();
  const std::vector<std::string> names = Reader(image).section_names();
  for (std::size_t len = 0; len < image.size(); ++len) {
    const std::vector<std::uint8_t> prefix(
        image.begin(), image.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_TRUE(rejected_or_degraded(prefix, names))
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(CkptCorruption, DevmonSectionEverySingleBitFlipRejected) {
  const std::vector<std::uint8_t> image = devmon_image();
  const std::vector<std::string> names = Reader(image).section_names();
  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = image;
      flipped[byte] = static_cast<std::uint8_t>(flipped[byte] ^ (1U << bit));
      EXPECT_TRUE(rejected_or_degraded(flipped, names))
          << "bit flip at byte " << byte << " bit " << bit << " accepted";
    }
  }
}

TEST(CkptCorruption, DevmonGeometryMismatchRejected) {
  // A devmon image only grafts onto a monitor with identical geometry:
  // different slot counts, chain lengths, or lane counts all throw.
  const std::vector<std::uint8_t> image = devmon_image();
  Reader good(image);
  const mem::PhysMemory three({mem::TierSpec{"dram", 16, 80, 80, 0},
                               mem::TierSpec{"cxl", 32, 150, 200, 0},
                               mem::TierSpec{"nvm", 64, 300, 600, 0}});
  const mem::PhysMemory two({mem::TierSpec{"dram", 16, 80, 80, 0},
                             mem::TierSpec{"nvm", 64, 300, 600, 0}});
  monitors::DevMonConfig cfg;
  cfg.enabled = true;
  cfg.slots = 8;
  cfg.top_k = 4;

  monitors::DevMonitor same(cfg, three, 2);
  good.enter_section("devmon");
  same.load_state(good);  // round-trips cleanly
  good.end_section();

  monitors::DevMonitor short_chain(cfg, two, 2);
  Reader r1(image);
  r1.enter_section("devmon");
  EXPECT_THROW(short_chain.load_state(r1), CkptError);

  monitors::DevMonConfig wide = cfg;
  wide.slots = 16;
  monitors::DevMonitor more_slots(wide, three, 2);
  Reader r2(image);
  r2.enter_section("devmon");
  EXPECT_THROW(more_slots.load_state(r2), CkptError);

  monitors::DevMonitor more_lanes(cfg, three, 4);
  Reader r3(image);
  r3.enter_section("devmon");
  EXPECT_THROW(more_lanes.load_state(r3), CkptError);
}

/// Single-section image `name` whose payload is `payload`.
std::vector<std::uint8_t> framed(const std::string& name,
                                 const std::vector<std::uint8_t>& payload) {
  Writer w;
  w.begin_section(name);
  w.put_bytes(payload.data(), payload.size());
  w.end_section();
  return w.finish();
}

/// The payload of a single-section image written by Writer.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& image,
                                     const std::string& name) {
  const std::size_t len_at = kHeaderSize + sizeof(std::uint32_t) + name.size();
  std::uint64_t len = 0;
  for (std::size_t i = 0; i < sizeof len; ++i) {
    len |= static_cast<std::uint64_t>(image[len_at + i]) << (8 * i);
  }
  const auto begin = image.begin() + static_cast<std::ptrdiff_t>(
                                         len_at + sizeof(std::uint64_t));
  return {begin, begin + static_cast<std::ptrdiff_t>(len)};
}

TEST(CkptCorruption, SystemScheduleCursorOutOfRangeRejected) {
  // step() and step_parallel() index the process schedule with the saved
  // cursor, so a cursor past the schedule must be refused at load.
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 256;
  cfg.tier2_frames = 4096;
  const auto make = [&cfg] {
    auto sys = std::make_unique<sim::System>(cfg);
    // Weights 2:1 make a three-slot schedule.
    sys->add_process(
        std::make_unique<workloads::UniformWorkload>(1 << 16, 0.2, 1), 2.0);
    sys->add_process(
        std::make_unique<workloads::UniformWorkload>(1 << 16, 0.2, 2));
    return sys;
  };
  auto source = make();
  source->step(1001);
  Writer w;
  w.begin_section("system");
  source->save_state(w);
  w.end_section();
  const std::vector<std::uint8_t> payload = payload_of(w.finish(), "system");

  // The cursor is the payload's third u64, after now and total_ops.
  const auto load_with_cursor = [&](std::uint64_t cursor) {
    std::vector<std::uint8_t> bytes = payload;
    for (std::size_t i = 0; i < sizeof cursor; ++i) {
      bytes[16 + i] = static_cast<std::uint8_t>(cursor >> (8 * i));
    }
    Reader r(framed("system", bytes));
    r.enter_section("system");
    auto target = make();
    target->load_state(r);
    r.end_section();
  };
  EXPECT_NO_THROW(load_with_cursor(2));
  for (const std::uint64_t bad : {std::uint64_t{3}, std::uint64_t{1} << 40,
                                  ~std::uint64_t{0}}) {
    try {
      load_with_cursor(bad);
      ADD_FAILURE() << "cursor " << bad << " accepted";
    } catch (const CkptError& e) {
      EXPECT_EQ(e.section(), "system");
      EXPECT_NE(std::string(e.what()).find("schedule cursor"),
                std::string::npos)
          << e.what();
    }
  }
}

/// A PmuCore image (PmuCore::save_state's layout) declaring `count`
/// programmed events and carrying `events`.
std::vector<std::uint8_t> pmu_core_image(std::uint64_t count,
                                         const std::vector<pmu::Event>& events) {
  Writer w;
  w.begin_section("system");  // the PMU rides in the system section
  for (std::size_t i = 0; i < pmu::kEventCount; ++i) w.put_u64(i);
  w.put_u64(count);
  for (const pmu::Event e : events) {
    w.put_u8(static_cast<std::uint8_t>(e));
    w.put_u64(5);      // raw
    w.put_u64(0);      // live_ns
    w.put_bool(true);  // live
  }
  for (int i = 0; i < 4; ++i) w.put_u64(0);  // rotation and clocks
  w.end_section();
  return w.finish();
}

/// Loads `image` into a fresh PmuCore; returns the CkptError, if any.
std::optional<CkptError> load_pmu_core(const std::vector<std::uint8_t>& image) {
  Reader r(image);
  r.enter_section("system");
  pmu::PmuCore core(4);
  try {
    core.load_state(r);
    r.end_section();
  } catch (const CkptError& e) {
    return e;
  }
  EXPECT_EQ(core.read(pmu::Event::LlcMiss), 5U);
  return std::nullopt;
}

TEST(CkptCorruption, PmuProgrammedCountAndDuplicatesRejected) {
  using pmu::Event;
  // Intact: two distinct events load and read back.
  EXPECT_FALSE(
      load_pmu_core(pmu_core_image(2, {Event::LlcMiss, Event::DtlbWalk})));

  // A count above the number of events is refused before any allocation,
  // including one the old unbounded resize would have tried to honour.
  for (const std::uint64_t count :
       {std::uint64_t{pmu::kEventCount} + 1, std::uint64_t{1} << 40}) {
    const auto err = load_pmu_core(pmu_core_image(count, {}));
    ASSERT_TRUE(err) << "count " << count << " accepted";
    EXPECT_EQ(err->section(), "pmu");
    EXPECT_NE(std::string(err->what()).find("exceeds"), std::string::npos)
        << err->what();
  }

  // The slot index maps each event to one observation: duplicates are
  // refused, as program() refuses them.
  const auto dup = load_pmu_core(
      pmu_core_image(3, {Event::LlcMiss, Event::DtlbWalk, Event::LlcMiss}));
  ASSERT_TRUE(dup);
  EXPECT_EQ(dup->section(), "pmu");
  EXPECT_NE(std::string(dup->what()).find("programmed twice"),
            std::string::npos)
      << dup->what();
}

/// A checkpoint image holding a populated TenantArbiter (decayed benefit,
/// live grants, partial charges, reclaim/shed tallies and a bandwidth
/// carve) framed exactly the way the runner writes its "tenant" section,
/// so the corruption matrix also covers the fleet arbitration state
/// introduced by docs/CONSOLIDATION.md.
std::vector<std::uint8_t> tenant_image() {
  tiering::TenantArbiter arbiter;
  arbiter.set_capacity(512);
  const auto make = [](const char* name, tiering::QosClass qos,
                       std::uint64_t floor, std::uint32_t bw) {
    tiering::TenantSpec spec;
    spec.name = name;
    spec.qos = qos;
    spec.floor_frames = floor;
    spec.bandwidth_weight = bw;
    return spec;
  };
  arbiter.register_tenant(1, make("service", tiering::QosClass::Latency,
                                  256, 4));
  arbiter.register_tenant(2, make("batch_1", tiering::QosClass::Batch, 0, 1));
  arbiter.register_tenant(3, make("batch_2", tiering::QosClass::Batch, 0, 1));
  util::Rng rng(17);
  for (std::uint32_t epoch = 1; epoch <= 5; ++epoch) {
    const std::vector<std::uint64_t> heat{rng.below(5000), rng.below(900),
                                          rng.below(900)};
    const std::vector<std::uint64_t> demand{200 + rng.below(200),
                                            rng.below(256), rng.below(256)};
    arbiter.begin_epoch(heat, demand, 64ULL << mem::kPageShift);
    for (mem::Pid pid = 1; pid <= 3; ++pid) {
      (void)arbiter.try_charge_frames(pid, 1 + rng.below(64));
      (void)arbiter.try_charge_bandwidth(pid, rng.below(32) << mem::kPageShift);
      (void)arbiter.next_move_seq(arbiter.tenant_of(pid));
    }
    arbiter.note_reclaimed(2, rng.below(16));
    arbiter.note_hitrate_bp(0, 9000 + rng.below(1000));
  }
  Writer w;
  w.begin_section("tenant");
  w.put_bool(true);
  arbiter.save_state(w);
  w.end_section();
  return w.finish();
}

TEST(CkptCorruption, TenantSectionTruncationAtEveryLengthRejected) {
  const std::vector<std::uint8_t> image = tenant_image();
  const std::vector<std::string> names = Reader(image).section_names();
  for (std::size_t len = 0; len < image.size(); ++len) {
    const std::vector<std::uint8_t> prefix(
        image.begin(), image.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_TRUE(rejected_or_degraded(prefix, names))
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(CkptCorruption, TenantSectionEverySingleBitFlipRejected) {
  const std::vector<std::uint8_t> image = tenant_image();
  const std::vector<std::string> names = Reader(image).section_names();
  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = image;
      flipped[byte] = static_cast<std::uint8_t>(flipped[byte] ^ (1U << bit));
      EXPECT_TRUE(rejected_or_degraded(flipped, names))
          << "bit flip at byte " << byte << " bit " << bit << " accepted";
    }
  }
}

TEST(CkptCorruption, PayloadFlipNamesItsSection) {
  // A flip inside a section's payload must be attributed to that section.
  Writer w;
  w.begin_section("meta");
  w.put_u64(1);
  w.end_section();
  w.begin_section("victim");
  w.put_u64(0);
  w.end_section();
  std::vector<std::uint8_t> image = w.finish();
  // The last frame's payload starts 12 bytes from the end (8 payload +
  // 4 CRC); flip its first payload byte.
  image[image.size() - 12] ^= 0x01;
  try {
    Reader r(image);
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.section(), "victim");
  }
}

TEST(CkptCorruption, BadMagicRejectedAsHeader) {
  std::vector<std::uint8_t> image = sample_image();
  image[0] ^= 0xff;
  try {
    Reader r(image);
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.section(), "<header>");
  }
}

TEST(CkptCorruption, VersionSkewRejectedAsHeader) {
  std::vector<std::uint8_t> image = sample_image();
  image[sizeof kMagic] = kFormatVersion + 1;  // version is LE u32 after magic
  try {
    Reader r(image);
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.section(), "<header>");
  }
}

// ---------------------------------------------------------------------------
// CRC-32: the slicing-by-8 implementation must agree with the classic
// byte-at-a-time definition everywhere, or old checkpoints stop loading.

/// Byte-at-a-time reflected CRC-32 (polynomial 0xedb88320), bit by bit so
/// it shares no table with the code under test.
std::uint32_t reference_crc32(const std::uint8_t* bytes, std::size_t size,
                              std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xffffffffU;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= bytes[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xedb88320U ^ (c >> 1) : (c >> 1);
    }
  }
  return c ^ 0xffffffffU;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

TEST(CkptCrc, MatchesByteAtATimeReference) {
  // Every length across several 8-byte strides, at every alignment of the
  // start pointer, with and without a chained seed.
  const std::vector<std::uint8_t> bytes = random_bytes(1100 + 8, 0xc4c32);
  for (const std::uint32_t seed : {0U, 0xdeadbeefU}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t len = 0; len <= 1100; ++len) {
        const std::uint8_t* p = bytes.data() + offset;
        ASSERT_EQ(crc32(p, len, seed), reference_crc32(p, len, seed))
            << "seed " << seed << " offset " << offset << " len " << len;
      }
    }
  }
}

TEST(CkptCrc, StandardCheckValue) {
  const char check[] = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xCBF43926U);
  EXPECT_EQ(crc32(check, 0), 0U);
}

TEST(CkptCrc, SeedChainsAcrossSplits) {
  const std::vector<std::uint8_t> bytes = random_bytes(777, 42);
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = crc32(bytes.data(), split);
    ASSERT_EQ(crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
  }
}

// ---------------------------------------------------------------------------
// Manifest: the one section walk every driver checkpoints through.

/// A participant whose state is `words` u64s, the first held in `value`;
/// with `on` set it carries a presence byte read from `*on`.
Participant u64_participant(const std::string& name, std::uint64_t& value,
                            int words = 1, const bool* on = nullptr) {
  Participant p{name, {}, nullptr, nullptr};
  if (on != nullptr) p.present = [on] { return *on; };
  p.save = [&value, words](Writer& w) {
    for (int i = 0; i < words; ++i) w.put_u64(value);
  };
  p.load = [&value, words](Reader& r) {
    for (int i = 0; i < words; ++i) value = r.get_u64();
  };
  return p;
}

/// The section named by the CkptError `load` throws, or "" if none.
std::string rejected_section(const Manifest& m,
                             const std::vector<std::uint8_t>& image) {
  try {
    Reader r(image);
    m.load(r);
  } catch (const CkptError& e) {
    return e.section();
  }
  return "";
}

TEST(CkptManifest, RoundTripsInRegistrationOrder) {
  std::uint64_t a = 7, b = 9, c = 11;
  bool c_on = false;
  Manifest out;
  out.add(u64_participant("alpha", a));
  out.add(u64_participant("beta", b));
  out.add(u64_participant("gamma", c, 1, &c_on));
  Writer w;
  out.save(w);
  const std::vector<std::uint8_t> image = w.finish();
  Reader names(image);
  EXPECT_EQ(names.section_names(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));

  std::uint64_t a2 = 0, b2 = 0, c2 = 5;
  Manifest in;
  in.add(u64_participant("alpha", a2));
  in.add(u64_participant("beta", b2));
  in.add(u64_participant("gamma", c2, 1, &c_on));
  Reader r(image);
  in.load(r);
  EXPECT_EQ(a2, 7U);
  EXPECT_EQ(b2, 9U);
  EXPECT_EQ(c2, 5U);  // absent: only its presence byte was written
}

TEST(CkptManifest, OrderIsEnforced) {
  std::uint64_t a = 1, b = 2;
  Manifest out;
  out.add(u64_participant("alpha", a));
  out.add(u64_participant("beta", b));
  Writer w;
  out.save(w);
  Manifest swapped;
  swapped.add(u64_participant("beta", b));
  swapped.add(u64_participant("alpha", a));
  EXPECT_EQ(rejected_section(swapped, w.finish()), "beta");
}

TEST(CkptManifest, PresenceMismatchNamesParticipant) {
  // "beta" has no state of its own, so only the presence byte can tell a
  // run that has it from one that does not.
  std::uint64_t a = 1, b = 2;
  for (const bool saved : {true, false}) {
    bool on = saved;
    Manifest m;
    m.add(u64_participant("alpha", a));
    m.add(u64_participant("beta", b, 0, &on));
    Writer w;
    m.save(w);
    const std::vector<std::uint8_t> image = w.finish();
    on = !saved;
    EXPECT_EQ(rejected_section(m, image), "beta") << "saved " << saved;
    on = saved;
    EXPECT_EQ(rejected_section(m, image), "") << "saved " << saved;
  }
}

TEST(CkptManifest, MissingAndUnexpectedSectionsAreNamed) {
  std::uint64_t a = 1, b = 2;
  Manifest one;
  one.add(u64_participant("alpha", a));
  Manifest two;
  two.add(u64_participant("alpha", a));
  two.add(u64_participant("beta", b));
  Writer w1;
  one.save(w1);
  EXPECT_EQ(rejected_section(two, w1.finish()), "beta");
  Writer w2;
  two.save(w2);
  EXPECT_EQ(rejected_section(one, w2.finish()), "beta");
}

TEST(CkptManifest, UnreadTrailingBytesAreNamed) {
  std::uint64_t a = 1, b = 2;
  Manifest out;
  out.add(u64_participant("alpha", a));
  out.add(u64_participant("beta", b, 2));
  Writer w;
  out.save(w);
  Manifest in;
  in.add(u64_participant("alpha", a));
  in.add(u64_participant("beta", b));
  EXPECT_EQ(rejected_section(in, w.finish()), "beta");
}

// ---------------------------------------------------------------------------
// Atomic writes, discovery and retention.

TEST(CkptIo, SaveAtomicLeavesNoTempFile) {
  const fs::path dir = temp_dir("atomic");
  const std::string path = (dir / "a.tmck").string();
  Writer w;
  w.begin_section("s");
  w.put_u64(1);
  w.end_section();
  Writer::save_atomic(path, w.finish());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  Reader r = Reader::from_file(path);
  r.enter_section("s");
  EXPECT_EQ(r.get_u64(), 1U);
  r.end_section();

  // Overwrite: the new image replaces the old one completely.
  Writer w2;
  w2.begin_section("s");
  w2.put_u64(2);
  w2.end_section();
  Writer::save_atomic(path, w2.finish());
  Reader r2 = Reader::from_file(path);
  r2.enter_section("s");
  EXPECT_EQ(r2.get_u64(), 2U);
  r2.end_section();
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(CkptIo, MissingDirectoryThrowsIoError) {
  const fs::path dir = temp_dir("missing-io");
  const std::string path = (dir / "nope" / "a.tmck").string();
  Writer w;
  try {
    Writer::save_atomic(path, w.finish());
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.section(), "<io>");
  }
}

TEST(CkptIo, UnreadableFileThrowsIoError) {
  const fs::path dir = temp_dir("missing-file");
  try {
    (void)Reader::from_file((dir / "absent.tmck").string());
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.section(), "<io>");
  }
}

TEST(CkptIo, LatestInAndPrune) {
  const fs::path dir = temp_dir("retention");
  Writer w;
  const std::vector<std::uint8_t> image = w.finish();
  for (const std::uint32_t epoch : {1U, 3U, 5U, 12U}) {
    Writer::save_atomic(checkpoint_path(dir.string(), "run", epoch), image);
  }
  Writer::save_atomic(checkpoint_path(dir.string(), "other", 99), image);

  EXPECT_EQ(latest_in(dir.string(), "run"),
            checkpoint_path(dir.string(), "run", 12));
  EXPECT_EQ(latest_in(dir.string(), "none"), "");

  prune(dir.string(), "run", 2);
  EXPECT_FALSE(fs::exists(checkpoint_path(dir.string(), "run", 1)));
  EXPECT_FALSE(fs::exists(checkpoint_path(dir.string(), "run", 3)));
  EXPECT_TRUE(fs::exists(checkpoint_path(dir.string(), "run", 5)));
  EXPECT_TRUE(fs::exists(checkpoint_path(dir.string(), "run", 12)));
  // A different basename in the same directory is untouched.
  EXPECT_TRUE(fs::exists(checkpoint_path(dir.string(), "other", 99)));
}

}  // namespace
}  // namespace tmprof::util::ckpt

// ---------------------------------------------------------------------------
// Randomized state round-trips: serialize → load → serialize again must be
// byte-identical (deep equality without needing accessors for every field).

namespace tmprof::tiering {
namespace {

namespace fs = std::filesystem;
using util::ckpt::CkptError;
using util::ckpt::Reader;
using util::ckpt::Writer;

core::PageKey random_key(util::Rng& rng) {
  return core::PageKey{static_cast<mem::Pid>(1 + rng.below(8)),
                       rng.below(1 << 16) << mem::kPageShift};
}

EpochSeries random_series(std::uint64_t seed, std::uint32_t n_epochs) {
  util::Rng rng(seed);
  EpochSeries series;
  for (std::uint32_t e = 0; e < n_epochs; ++e) {
    EpochData data;
    data.epoch = e;
    const std::uint64_t pages = rng.below(64);
    for (std::uint64_t i = 0; i < pages; ++i) {
      const core::PageKey key = random_key(rng);
      data.truth[key] += 1 + rng.below(1000);
      data.truth_total += data.truth[key];
      if (rng.chance(0.5)) {
        data.observed.abit[key] =
            static_cast<std::uint32_t>(1 + rng.below(16));
      }
      if (rng.chance(0.5)) {
        data.observed.trace[key] =
            static_cast<std::uint32_t>(rng.below(4096));
      }
      if (rng.chance(0.25)) {
        data.observed.writes[key] =
            static_cast<std::uint32_t>(rng.below(64));
      }
      if (rng.chance(0.2)) data.new_pages.push_back(key);
      series.page_sizes[key] =
          rng.chance(0.1) ? mem::PageSize::k2M : mem::PageSize::k4K;
    }
    data.observed.epoch = e;
    series.epochs.push_back(std::move(data));
  }
  series.footprint_frames = rng.below(1 << 20);
  series.degrade.trace_dropped = rng.below(100);
  series.degrade.scans_aborted = rng.below(100);
  series.degrade.hwpc_wraps = rng.below(100);
  return series;
}

std::vector<std::uint8_t> series_image(const EpochSeries& series) {
  Writer w;
  w.begin_section("series");
  save_series(w, series);
  w.end_section();
  return w.finish();
}

TEST(CkptState, SeriesRoundTripRandomized) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 0xfeedULL}) {
    const EpochSeries original = random_series(seed, 6);
    const std::vector<std::uint8_t> image = series_image(original);
    Reader r(image);
    r.enter_section("series");
    EpochSeries loaded;
    load_series(r, loaded);
    r.end_section();
    // Deep equality via canonical re-serialization (maps are written in
    // sorted key order, so equal state ⇒ equal bytes).
    EXPECT_EQ(series_image(loaded), image) << "seed " << seed;
    ASSERT_EQ(loaded.epochs.size(), original.epochs.size());
    EXPECT_EQ(loaded.epochs.back().truth, original.epochs.back().truth);
    EXPECT_EQ(loaded.page_sizes, original.page_sizes);
    EXPECT_EQ(loaded.footprint_frames, original.footprint_frames);
  }
}

TEST(CkptState, EmptySeriesRoundTrips) {
  const EpochSeries empty;
  const std::vector<std::uint8_t> image = series_image(empty);
  Reader r(image);
  r.enter_section("series");
  EpochSeries loaded;
  load_series(r, loaded);
  r.end_section();
  EXPECT_TRUE(loaded.epochs.empty());
  EXPECT_TRUE(loaded.page_sizes.empty());
  EXPECT_EQ(loaded.footprint_frames, 0U);
}

TEST(CkptState, PageCountsAndRankingRoundTrip) {
  util::Rng rng(7);
  core::PageCountMap counts;
  std::vector<core::PageRank> ranking;
  for (int i = 0; i < 100; ++i) {
    const core::PageKey key = random_key(rng);
    counts[key] = static_cast<std::uint32_t>(rng.below(1 << 20));
    ranking.push_back(core::PageRank{key, rng.below(1 << 20),
                                     static_cast<std::uint32_t>(rng.below(9)),
                                     static_cast<std::uint32_t>(rng.below(9)),
                                     static_cast<std::uint32_t>(rng.below(9))});
  }
  Writer w;
  w.begin_section("s");
  core::save_page_counts(w, counts);
  core::save_ranking(w, ranking);
  w.end_section();
  Reader r(w.finish());
  r.enter_section("s");
  core::PageCountMap counts2;
  std::vector<core::PageRank> ranking2;
  core::load_page_counts(r, counts2);
  core::load_ranking(r, ranking2);
  r.end_section();
  EXPECT_EQ(counts2, counts);
  ASSERT_EQ(ranking2.size(), ranking.size());
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    EXPECT_EQ(ranking2[i].key, ranking[i].key);
    EXPECT_EQ(ranking2[i].rank, ranking[i].rank);
    EXPECT_EQ(ranking2[i].abit, ranking[i].abit);
    EXPECT_EQ(ranking2[i].trace, ranking[i].trace);
    EXPECT_EQ(ranking2[i].writes, ranking[i].writes);
  }
}

// ---------------------------------------------------------------------------
// End-to-end resume: checkpoint mid-run, resume, compare bitwise.

sim::SimConfig tiny_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 9;
  cfg.tier2_frames = 1 << 14;
  return cfg;
}

RunnerOptions tiny_runner(const std::string& policy) {
  RunnerOptions opt;
  opt.policy = policy;
  opt.n_epochs = 5;
  opt.ops_per_epoch = 30000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(256);
  return opt;
}

/// Bit-faithful equality for RunnerResult (doubles via their bit patterns).
void expect_bitwise_equal(const RunnerResult& a, const RunnerResult& b) {
  EXPECT_EQ(a.runtime_ns, b.runtime_ns);
  std::uint64_t ha = 0, hb = 0;
  std::memcpy(&ha, &a.tier1_hitrate, sizeof ha);
  std::memcpy(&hb, &b.tier1_hitrate, sizeof hb);
  EXPECT_EQ(ha, hb);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.protection_faults, b.protection_faults);
  EXPECT_EQ(a.profiling_overhead_ns, b.profiling_overhead_ns);
  EXPECT_EQ(a.moves.promoted, b.moves.promoted);
  EXPECT_EQ(a.moves.demoted, b.moves.demoted);
  EXPECT_EQ(a.moves.retried, b.moves.retried);
  EXPECT_EQ(a.moves.deferred, b.moves.deferred);
  EXPECT_EQ(a.moves.aborted, b.moves.aborted);
  EXPECT_EQ(a.moves.no_room, b.moves.no_room);
  EXPECT_EQ(a.moves.rejected, b.moves.rejected);
  EXPECT_EQ(a.moves.cooled, b.moves.cooled);
  EXPECT_EQ(a.moves.shed, b.moves.shed);
  EXPECT_EQ(a.moves.moved_bytes, b.moves.moved_bytes);
  EXPECT_EQ(a.degrade.throttled_epochs, b.degrade.throttled_epochs);
  EXPECT_EQ(a.degrade.hwpc_wraps, b.degrade.hwpc_wraps);
  EXPECT_EQ(a.degrade.scans_aborted, b.degrade.scans_aborted);
  EXPECT_EQ(a.degrade.trace_dropped, b.degrade.trace_dropped);
  EXPECT_EQ(a.degrade.pinned_epochs, b.degrade.pinned_epochs);
  EXPECT_EQ(a.degrade.fallback_epochs, b.degrade.fallback_epochs);
  EXPECT_EQ(a.degrade.qos_fallback_epochs, b.degrade.qos_fallback_epochs);
  const auto bits = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  ASSERT_EQ(a.process_hitrates.size(), b.process_hitrates.size());
  for (std::size_t i = 0; i < a.process_hitrates.size(); ++i) {
    EXPECT_EQ(bits(a.process_hitrates[i]), bits(b.process_hitrates[i]));
  }
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].name, b.tenants[i].name);
    EXPECT_EQ(bits(a.tenants[i].hitrate), bits(b.tenants[i].hitrate));
    EXPECT_EQ(a.tenants[i].grant_frames, b.tenants[i].grant_frames);
    EXPECT_EQ(a.tenants[i].demand_frames, b.tenants[i].demand_frames);
    EXPECT_EQ(a.tenants[i].occupancy_frames, b.tenants[i].occupancy_frames);
    EXPECT_EQ(a.tenants[i].quota_shed, b.tenants[i].quota_shed);
    EXPECT_EQ(a.tenants[i].reclaimed_frames, b.tenants[i].reclaimed_frames);
    EXPECT_EQ(a.tenants[i].bandwidth_rejected, b.tenants[i].bandwidth_rejected);
  }
}

TEST(CkptResume, CheckpointingDoesNotPerturbResults) {
  // Acceptance: a run with checkpointing enabled is bitwise identical to
  // the same run without it.
  const auto spec = workloads::find_spec("gups", 0.05);
  const RunnerResult plain =
      EndToEndRunner::run(spec, tiny_config(), tiny_runner("history"));
  // Deliberately not pre-created (and nested): enabling checkpoints must
  // mkdir -p the directory instead of aborting on the first save.
  const fs::path dir =
      fs::path(::testing::TempDir()) / "tmprof-noperturb" / "nested";
  fs::remove_all(dir.parent_path());
  RunnerOptions opt = tiny_runner("history");
  opt.checkpoint.every = 2;
  opt.checkpoint.dir = dir.string();
  const RunnerResult with_ckpt =
      EndToEndRunner::run(spec, tiny_config(), opt);
  expect_bitwise_equal(with_ckpt, plain);
  EXPECT_NE(util::ckpt::latest_in(dir.string(), "ckpt"), "");
}

TEST(CkptResume, RunnerResumesBitwiseIdentical) {
  const auto spec = workloads::find_spec("gups", 0.05);
  for (const char* policy : {"history", "oracle", "freq-decay"}) {
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("tmprof-resume-" + std::string(policy));
    fs::remove_all(dir);
    fs::create_directories(dir);

    const RunnerResult reference =
        EndToEndRunner::run(spec, tiny_config(), tiny_runner(policy));

    // Full run with checkpoints every epoch, then re-run from epoch 3's.
    RunnerOptions opt = tiny_runner(policy);
    opt.checkpoint.every = 1;
    opt.checkpoint.dir = dir.string();
    opt.checkpoint.keep_last = 16;
    (void)EndToEndRunner::run(spec, tiny_config(), opt);

    RunnerOptions resume = tiny_runner(policy);
    resume.checkpoint.resume_from =
        util::ckpt::checkpoint_path(dir.string(), "ckpt", 3);
    ASSERT_TRUE(fs::exists(resume.checkpoint.resume_from)) << policy;
    const RunnerResult resumed =
        EndToEndRunner::run(spec, tiny_config(), resume);
    expect_bitwise_equal(resumed, reference);
  }
}

TEST(CkptResume, ShardedCollectResumesIdentical) {
  const auto spec = workloads::find_spec("gups", 0.05);
  CollectOptions collect;
  collect.n_epochs = 4;
  collect.ops_per_epoch = 30000;
  collect.daemon.driver.ibs = monitors::IbsConfig::with_period(256);
  collect.n_threads = 1;  // sharded engine, inline
  const EpochSeries reference =
      collect_series(spec, tiny_config(), collect);

  const fs::path dir = fs::path(::testing::TempDir()) / "tmprof-collect";
  fs::remove_all(dir);
  fs::create_directories(dir);
  CollectOptions ck = collect;
  ck.checkpoint.every = 2;
  ck.checkpoint.dir = dir.string();
  (void)collect_series(spec, tiny_config(), ck);

  CollectOptions resume = collect;
  resume.checkpoint.resume_from =
      util::ckpt::checkpoint_path(dir.string(), "ckpt", 2);
  ASSERT_TRUE(fs::exists(resume.checkpoint.resume_from));
  const EpochSeries resumed = collect_series(spec, tiny_config(), resume);
  EXPECT_EQ(series_image(resumed), series_image(reference));
}

TEST(CkptResume, SketchModeCollectResumesIdentical) {
  // The sketch front-end's state (count-min cells, Bloom words, candidate
  // sets, admission floors) rides in the checkpoint; a kill-and-resume run
  // must be byte-identical to the uninterrupted one, exactly as in exact
  // mode.
  const auto spec = workloads::find_spec("gups", 0.05);
  CollectOptions collect;
  collect.n_epochs = 4;
  collect.ops_per_epoch = 30000;
  collect.daemon.driver.ibs = monitors::IbsConfig::with_period(256);
  collect.daemon.driver.hotness.mode = core::HotnessMode::Sketch;
  collect.daemon.driver.hotness.sketch.width = 1 << 12;
  collect.daemon.driver.hotness.candidates = 1 << 13;
  collect.n_threads = 1;  // sharded engine, inline
  const EpochSeries reference = collect_series(spec, tiny_config(), collect);

  const fs::path dir = fs::path(::testing::TempDir()) / "tmprof-collect-sketch";
  fs::remove_all(dir);
  fs::create_directories(dir);
  CollectOptions ck = collect;
  ck.checkpoint.every = 2;
  ck.checkpoint.dir = dir.string();
  (void)collect_series(spec, tiny_config(), ck);

  CollectOptions resume = collect;
  resume.checkpoint.resume_from =
      util::ckpt::checkpoint_path(dir.string(), "ckpt", 2);
  ASSERT_TRUE(fs::exists(resume.checkpoint.resume_from));
  const EpochSeries resumed = collect_series(spec, tiny_config(), resume);
  EXPECT_EQ(series_image(resumed), series_image(reference));

  // A checkpoint written in sketch mode must not graft onto an exact-mode
  // run: the mode byte rejects it and the run cold-starts.
  CollectOptions exact_resume = collect;
  exact_resume.daemon.driver.hotness = core::HotnessConfig{};
  const EpochSeries exact_reference =
      collect_series(spec, tiny_config(), exact_resume);
  exact_resume.checkpoint.resume_from =
      util::ckpt::checkpoint_path(dir.string(), "ckpt", 2);
  const EpochSeries exact_resumed =
      collect_series(spec, tiny_config(), exact_resume);
  EXPECT_EQ(series_image(exact_resumed), series_image(exact_reference));
}

TEST(CkptResume, CorruptCheckpointFallsBackToColdStart) {
  const auto spec = workloads::find_spec("gups", 0.05);
  const RunnerResult reference =
      EndToEndRunner::run(spec, tiny_config(), tiny_runner("history"));

  const fs::path dir = fs::path(::testing::TempDir()) / "tmprof-corrupt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  RunnerOptions opt = tiny_runner("history");
  opt.checkpoint.every = 2;
  opt.checkpoint.dir = dir.string();
  (void)EndToEndRunner::run(spec, tiny_config(), opt);
  const std::string latest = util::ckpt::latest_in(dir.string(), "ckpt");
  ASSERT_NE(latest, "");

  // Corrupt the newest checkpoint three ways; every resume must reject it
  // and still produce the reference result from a cold start.
  std::vector<std::uint8_t> image;
  {
    std::ifstream in(latest, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto run_resume = [&](const std::vector<std::uint8_t>& bytes) {
    const std::string path = (dir / "corrupt.tmck").string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    RunnerOptions resume = tiny_runner("history");
    resume.checkpoint.resume_from = path;
    return EndToEndRunner::run(spec, tiny_config(), resume);
  };

  std::vector<std::uint8_t> truncated(
      image.begin(),
      image.begin() + static_cast<std::ptrdiff_t>(image.size() / 2));
  expect_bitwise_equal(run_resume(truncated), reference);

  std::vector<std::uint8_t> flipped = image;
  flipped[image.size() / 2] ^= 0x40;
  expect_bitwise_equal(run_resume(flipped), reference);

  std::vector<std::uint8_t> skewed = image;
  skewed[sizeof util::ckpt::kMagic] ^= 0xff;  // version field
  expect_bitwise_equal(run_resume(skewed), reference);
}

/// Runner options with the admission gate on: low bandwidth and a tight
/// storm brake so every verdict class (rejected, cooled, shed) has live
/// state riding in the checkpoint.
RunnerOptions gated_runner(const std::string& policy, AdmissionMode mode) {
  RunnerOptions opt = tiny_runner(policy);
  opt.mover.admission.mode = mode;
  opt.mover.admission.min_history = 1;
  opt.mover.admission.bandwidth_bytes_per_sec = 512ULL << mem::kPageShift;
  opt.mover.admission.burst_bytes = 64ULL << mem::kPageShift;
  opt.mover.admission.cooldown_epochs = 2;
  opt.mover.admission.max_moves_per_epoch = 48;
  return opt;
}

TEST(CkptResume, GatedRunnerResumesBitwiseIdentical) {
  // The admission section (history, bucket, cool-downs, registry) rides in
  // the checkpoint; kill-and-resume under an active gate must be bitwise
  // identical to the uninterrupted run for both gated modes.
  const auto spec = workloads::find_spec("gups", 0.05);
  for (const AdmissionMode mode :
       {AdmissionMode::Static, AdmissionMode::Adaptive}) {
    const fs::path dir =
        fs::path(::testing::TempDir()) /
        ("tmprof-adm-resume-" + std::string(to_string(mode)));
    fs::remove_all(dir);
    fs::create_directories(dir);

    const RunnerResult reference =
        EndToEndRunner::run(spec, tiny_config(), gated_runner("history", mode));

    RunnerOptions opt = gated_runner("history", mode);
    opt.checkpoint.every = 1;
    opt.checkpoint.dir = dir.string();
    opt.checkpoint.keep_last = 16;
    (void)EndToEndRunner::run(spec, tiny_config(), opt);

    RunnerOptions resume = gated_runner("history", mode);
    resume.checkpoint.resume_from =
        util::ckpt::checkpoint_path(dir.string(), "ckpt", 3);
    ASSERT_TRUE(fs::exists(resume.checkpoint.resume_from))
        << to_string(mode);
    expect_bitwise_equal(EndToEndRunner::run(spec, tiny_config(), resume),
                         reference);
  }
}

TEST(CkptResume, AdmissionModeMismatchFallsBackToColdStart) {
  // A checkpoint written with the gate on must not graft onto a gate-off
  // run (and vice versa): the admission section's presence/mode bytes
  // reject it and the run cold-starts, bitwise equal to never resuming.
  const auto spec = workloads::find_spec("gups", 0.05);
  const fs::path dir = fs::path(::testing::TempDir()) / "tmprof-adm-mismatch";
  fs::remove_all(dir);
  fs::create_directories(dir);
  RunnerOptions opt = gated_runner("history", AdmissionMode::Static);
  opt.checkpoint.every = 2;
  opt.checkpoint.dir = dir.string();
  (void)EndToEndRunner::run(spec, tiny_config(), opt);
  const std::string latest = util::ckpt::latest_in(dir.string(), "ckpt");
  ASSERT_NE(latest, "");

  // Gated checkpoint into an ungated run.
  const RunnerResult off_reference =
      EndToEndRunner::run(spec, tiny_config(), tiny_runner("history"));
  RunnerOptions off_resume = tiny_runner("history");
  off_resume.checkpoint.resume_from = latest;
  expect_bitwise_equal(EndToEndRunner::run(spec, tiny_config(), off_resume),
                       off_reference);

  // Gated checkpoint into a run gated in the other mode.
  const RunnerResult adaptive_reference = EndToEndRunner::run(
      spec, tiny_config(), gated_runner("history", AdmissionMode::Adaptive));
  RunnerOptions adaptive_resume =
      gated_runner("history", AdmissionMode::Adaptive);
  adaptive_resume.checkpoint.resume_from = latest;
  expect_bitwise_equal(
      EndToEndRunner::run(spec, tiny_config(), adaptive_resume),
      adaptive_reference);
}

/// Small churned fleet (docs/CONSOLIDATION.md): a latency service plus two
/// staggered batch sessions that arrive and depart mid-run, all three
/// quota-arbitrated over the tiny fast tier.
WorkloadFactory fleet_factory() {
  return [](std::uint64_t seed) {
    std::vector<workloads::WorkloadPtr> v;
    v.push_back(std::make_unique<workloads::ZipfWorkload>(
        3ULL << 19, 4096, 0.9, 0.05, seed));
    v.push_back(std::make_unique<workloads::ChurnSessionWorkload>(
        1ULL << 19, 4096, 0.9, 6000, 6000, 4, 0, seed + 1));
    v.push_back(std::make_unique<workloads::ChurnSessionWorkload>(
        1ULL << 19, 4096, 0.9, 6000, 6000, 4, 4000, seed + 2));
    return v;
  };
}

std::vector<TenantSpec> small_fleet(std::size_t n_batch) {
  std::vector<TenantSpec> tenants;
  TenantSpec service;
  service.name = "service";
  service.qos = QosClass::Latency;
  service.floor_frames = 192;
  service.bandwidth_weight = 4;
  tenants.push_back(service);
  for (std::size_t i = 1; i <= n_batch; ++i) {
    TenantSpec batch;
    batch.name = "batch_" + std::to_string(i);
    batch.qos = QosClass::Batch;
    batch.floor_frames = 0;
    batch.bandwidth_weight = 1;
    tenants.push_back(batch);
  }
  return tenants;
}

RunnerOptions fleet_runner() {
  RunnerOptions opt = tiny_runner("history");
  opt.tenants = small_fleet(2);
  opt.process_weights = {2.0, 1.0, 1.0};
  opt.mover.min_rank = 1;
  return opt;
}

TEST(CkptResume, TenantChurnRunnerResumesBitwiseIdentical) {
  // The arbiter's "tenant" section (benefit, grants, charges, tallies,
  // move sequence numbers) rides in the checkpoint; killing a churned
  // fleet mid-run and resuming must be bitwise identical to the
  // uninterrupted run, per-tenant outcomes included.
  const fs::path dir = fs::path(::testing::TempDir()) / "tmprof-tenant-resume";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const RunnerResult reference =
      EndToEndRunner::run(fleet_factory(), tiny_config(), fleet_runner());
  ASSERT_EQ(reference.tenants.size(), 3U);

  RunnerOptions opt = fleet_runner();
  opt.checkpoint.every = 1;
  opt.checkpoint.dir = dir.string();
  opt.checkpoint.keep_last = 16;
  (void)EndToEndRunner::run(fleet_factory(), tiny_config(), opt);

  RunnerOptions resume = fleet_runner();
  resume.checkpoint.resume_from =
      util::ckpt::checkpoint_path(dir.string(), "ckpt", 3);
  ASSERT_TRUE(fs::exists(resume.checkpoint.resume_from));
  expect_bitwise_equal(
      EndToEndRunner::run(fleet_factory(), tiny_config(), resume), reference);
}

TEST(CkptResume, TenantCountMismatchFallsBackToColdStart) {
  // A checkpoint from a 3-tenant fleet must not graft onto a 2-tenant run
  // (state would cross tenants), nor onto an arbiter-off run: the tenant
  // section's count / presence bytes reject it and the run cold-starts.
  const fs::path dir = fs::path(::testing::TempDir()) / "tmprof-tenant-mismatch";
  fs::remove_all(dir);
  fs::create_directories(dir);
  RunnerOptions opt = fleet_runner();
  opt.checkpoint.every = 2;
  opt.checkpoint.dir = dir.string();
  (void)EndToEndRunner::run(fleet_factory(), tiny_config(), opt);
  const std::string latest = util::ckpt::latest_in(dir.string(), "ckpt");
  ASSERT_NE(latest, "");

  // Fewer tenants than the checkpoint holds: count mismatch, cold start.
  RunnerOptions fewer = fleet_runner();
  fewer.tenants = small_fleet(1);
  fewer.tenants[1].name = "batch_1";
  const RunnerResult fewer_reference =
      EndToEndRunner::run(fleet_factory(), tiny_config(), fewer);
  RunnerOptions fewer_resume = fewer;
  fewer_resume.checkpoint.resume_from = latest;
  expect_bitwise_equal(
      EndToEndRunner::run(fleet_factory(), tiny_config(), fewer_resume),
      fewer_reference);

  // Arbiter off entirely: presence mismatch, cold start.
  RunnerOptions off = fleet_runner();
  off.tenants.clear();
  const RunnerResult off_reference =
      EndToEndRunner::run(fleet_factory(), tiny_config(), off);
  RunnerOptions off_resume = off;
  off_resume.checkpoint.resume_from = latest;
  expect_bitwise_equal(
      EndToEndRunner::run(fleet_factory(), tiny_config(), off_resume),
      off_reference);
}

TEST(CkptResume, MissingResumeFileFallsBackToColdStart) {
  const auto spec = workloads::find_spec("gups", 0.05);
  const RunnerResult reference =
      EndToEndRunner::run(spec, tiny_config(), tiny_runner("history"));
  RunnerOptions resume = tiny_runner("history");
  resume.checkpoint.resume_from = "/nonexistent/path/ckpt-e00000002.tmck";
  expect_bitwise_equal(EndToEndRunner::run(spec, tiny_config(), resume),
                       reference);
}

/// Writes a runner checkpoint, rewrites its header to format `version`
/// and resumes from it: the image must be rejected at the header, before
/// any section is read, and the run must equal a cold one.
void expect_old_format_cold_starts(std::uint32_t version) {
  const auto spec = workloads::find_spec("gups", 0.05);
  const RunnerResult reference =
      EndToEndRunner::run(spec, tiny_config(), tiny_runner("history"));

  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("tmprof-format-v" + std::to_string(version));
  fs::remove_all(dir);
  fs::create_directories(dir);
  RunnerOptions opt = tiny_runner("history");
  opt.checkpoint.every = 2;
  opt.checkpoint.dir = dir.string();
  (void)EndToEndRunner::run(spec, tiny_config(), opt);
  const std::string latest = util::ckpt::latest_in(dir.string(), "ckpt");
  ASSERT_NE(latest, "");
  std::vector<std::uint8_t> image;
  {
    std::ifstream in(latest, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GE(image.size(), util::ckpt::kHeaderSize);
  // The version is a LE u32 right after the magic.
  const std::uint8_t le[4] = {static_cast<std::uint8_t>(version),
                              static_cast<std::uint8_t>(version >> 8),
                              static_cast<std::uint8_t>(version >> 16),
                              static_cast<std::uint8_t>(version >> 24)};
  std::memcpy(image.data() + sizeof util::ckpt::kMagic, le, sizeof le);
  const std::string path = (dir / "old-format.tmck").string();
  util::ckpt::Writer::save_atomic(path, image);

  RunnerOptions resume = tiny_runner("history");
  resume.checkpoint.resume_from = path;
  ::testing::internal::CaptureStderr();
  const RunnerResult resumed = EndToEndRunner::run(spec, tiny_config(), resume);
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("rejected in section '<header>'"), std::string::npos)
      << warning;
  expect_bitwise_equal(resumed, reference);
}

TEST(CkptResume, FormatV1ImageColdStarts) {
  // Format 1 stored a 4-byte owner tag in every cache way.
  expect_old_format_cold_starts(1);
}

TEST(CkptResume, FormatV2ImageColdStarts) {
  // Format 2 carried the driver's cumulative trace/A-bit maps at the end
  // of the "daemon" section.
  expect_old_format_cold_starts(2);
}

TEST(CkptResume, MismatchedConfigRejected) {
  // A checkpoint from seed 42 must not be grafted onto a seed-43 run: the
  // meta section rejects it and the run cold-starts with its own seed.
  const auto spec = workloads::find_spec("gups", 0.05);
  const fs::path dir = fs::path(::testing::TempDir()) / "tmprof-meta";
  fs::remove_all(dir);
  fs::create_directories(dir);
  RunnerOptions opt = tiny_runner("history");
  opt.checkpoint.every = 2;
  opt.checkpoint.dir = dir.string();
  (void)EndToEndRunner::run(spec, tiny_config(), opt);
  const std::string latest = util::ckpt::latest_in(dir.string(), "ckpt");
  ASSERT_NE(latest, "");

  RunnerOptions other = tiny_runner("history");
  other.seed = 43;
  const RunnerResult reference =
      EndToEndRunner::run(spec, tiny_config(), other);
  RunnerOptions resume = other;
  resume.checkpoint.resume_from = latest;
  expect_bitwise_equal(EndToEndRunner::run(spec, tiny_config(), resume),
                       reference);

  // Same story for a policy mismatch.
  RunnerOptions wrong_policy = tiny_runner("freq-decay");
  const RunnerResult fd_reference =
      EndToEndRunner::run(spec, tiny_config(), wrong_policy);
  wrong_policy.checkpoint.resume_from = latest;
  expect_bitwise_equal(EndToEndRunner::run(spec, tiny_config(), wrong_policy),
                       fd_reference);
}

/// Explicit three-tier chain sized like tiny_config, so DevMon has two
/// device counter arrays riding in the "devmon" checkpoint section.
sim::SimConfig devmon_chain_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tiers = {mem::TierSpec{"dram", 1 << 9, 80, 80, 0},
               mem::TierSpec{"cxl", 1 << 10, 150, 200, 0},
               mem::TierSpec{"nvm", 1 << 14, 300, 600, 0}};
  return cfg;
}

RunnerOptions devmon_runner(const std::string& policy) {
  RunnerOptions opt = tiny_runner(policy);
  opt.fusion = core::FusionMode::SumDev;
  opt.daemon.devmon_weight = 0.01;
  opt.daemon.driver.devmon.enabled = true;
  return opt;
}

TEST(CkptResume, DevmonRunnerResumesBitwiseIdentical) {
  // The device-counter arrays, statistics, and unmerged lane tallies ride
  // in the "devmon" section; a kill-and-resume run with DevMon fused into
  // the ranking must be bitwise identical to the uninterrupted one.
  const auto spec = workloads::find_spec("gups", 0.05);
  const sim::SimConfig cfg = devmon_chain_config();
  const fs::path dir = fs::path(::testing::TempDir()) / "tmprof-devmon-resume";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const RunnerResult reference =
      EndToEndRunner::run(spec, cfg, devmon_runner("history"));

  RunnerOptions opt = devmon_runner("history");
  opt.checkpoint.every = 1;
  opt.checkpoint.dir = dir.string();
  opt.checkpoint.keep_last = 16;
  (void)EndToEndRunner::run(spec, cfg, opt);

  RunnerOptions resume = devmon_runner("history");
  resume.checkpoint.resume_from =
      util::ckpt::checkpoint_path(dir.string(), "ckpt", 3);
  ASSERT_TRUE(fs::exists(resume.checkpoint.resume_from));
  expect_bitwise_equal(EndToEndRunner::run(spec, cfg, resume), reference);
}

TEST(CkptResume, DevmonPresenceMismatchFallsBackToColdStart) {
  // A checkpoint written with the device monitor on must not graft onto a
  // devmon-off run (and vice versa): the section's presence byte rejects
  // it and the run cold-starts, bitwise equal to never resuming.
  const auto spec = workloads::find_spec("gups", 0.05);
  const sim::SimConfig cfg = devmon_chain_config();
  const fs::path dir = fs::path(::testing::TempDir()) / "tmprof-devmon-mismatch";
  fs::remove_all(dir);
  fs::create_directories(dir);
  RunnerOptions opt = devmon_runner("history");
  opt.checkpoint.every = 2;
  opt.checkpoint.dir = dir.string();
  (void)EndToEndRunner::run(spec, cfg, opt);
  const std::string latest = util::ckpt::latest_in(dir.string(), "ckpt");
  ASSERT_NE(latest, "");

  // Devmon checkpoint into a devmon-off run.
  const RunnerResult off_reference =
      EndToEndRunner::run(spec, cfg, tiny_runner("history"));
  RunnerOptions off_resume = tiny_runner("history");
  off_resume.checkpoint.resume_from = latest;
  expect_bitwise_equal(EndToEndRunner::run(spec, cfg, off_resume),
                       off_reference);

  // Devmon-off checkpoint into a devmon run.
  const fs::path off_dir =
      fs::path(::testing::TempDir()) / "tmprof-devmon-mismatch-off";
  fs::remove_all(off_dir);
  fs::create_directories(off_dir);
  RunnerOptions off_ckpt = tiny_runner("history");
  off_ckpt.checkpoint.every = 2;
  off_ckpt.checkpoint.dir = off_dir.string();
  (void)EndToEndRunner::run(spec, cfg, off_ckpt);
  const std::string off_latest =
      util::ckpt::latest_in(off_dir.string(), "ckpt");
  ASSERT_NE(off_latest, "");
  const RunnerResult on_reference =
      EndToEndRunner::run(spec, cfg, devmon_runner("history"));
  RunnerOptions on_resume = devmon_runner("history");
  on_resume.checkpoint.resume_from = off_latest;
  expect_bitwise_equal(EndToEndRunner::run(spec, cfg, on_resume),
                       on_reference);
}

// ---------------------------------------------------------------------------
// Checkpoint layout: the section lists of each driver and the bytes of
// every section are part of the format. Resumes only prove that a build
// reads what it writes; these tests pin what it writes.

/// One section frame of a checkpoint file.
struct Frame {
  std::string name;
  std::uint64_t size = 0;  ///< payload bytes
  std::uint32_t crc = 0;   ///< stored CRC-32 of the payload
  bool operator==(const Frame&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Frame& f) {
  return os << "{\"" << f.name << "\", " << f.size << ", 0x" << std::hex
            << f.crc << std::dec << "}";
}

std::vector<Frame> frames_of(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> image(std::istreambuf_iterator<char>(in),
                                        {});
  (void)Reader(image);  // validates framing and every CRC
  const auto le = [&image](std::size_t at, std::size_t bytes) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(image[at + i]) << (8 * i);
    }
    return v;
  };
  std::vector<Frame> frames;
  std::size_t pos = util::ckpt::kHeaderSize;
  while (pos < image.size()) {
    Frame f;
    const std::size_t name_len = le(pos, 4);
    f.name.assign(reinterpret_cast<const char*>(image.data() + pos + 4),
                  name_len);
    pos += 4 + name_len;
    f.size = le(pos, 8);
    pos += 8 + f.size;
    f.crc = static_cast<std::uint32_t>(le(pos, 4));
    pos += 4;
    frames.push_back(f);
  }
  return frames;
}

std::vector<std::string> names_of(const std::vector<Frame>& frames) {
  std::vector<std::string> names;
  for (const Frame& f : frames) names.push_back(f.name);
  return names;
}

/// Runs a driver with one checkpoint, after its last epoch; returns the
/// checkpoint's frames.
template <class Options, class Run>
std::vector<Frame> final_frames(const std::string& tag, Options opt, Run run) {
  // The running test's name keeps cases that share a tag apart when ctest
  // runs them as concurrent processes.
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("tmprof-layout-" + tag + "-" +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::remove_all(dir);
  opt.checkpoint.every = opt.n_epochs;
  opt.checkpoint.dir = dir.string();
  (void)run(opt);
  return frames_of(
      util::ckpt::checkpoint_path(dir.string(), "ckpt", opt.n_epochs));
}

std::vector<Frame> default_runner_frames() {
  RunnerOptions opt = tiny_runner("history");
  opt.n_epochs = 3;
  opt.ops_per_epoch = 20000;
  return final_frames("runner-default", opt, [](const RunnerOptions& o) {
    return EndToEndRunner::run(workloads::find_spec("gups", 0.05),
                               tiny_config(), o);
  });
}

/// Every layer on: sharded engine on a pool, stream, DevMon on a 3-tier
/// chain, adaptive admission, a weighted tenant fleet and telemetry.
std::vector<Frame> everything_runner_frames() {
  telemetry::Telemetry tel{telemetry::TelemetryConfig{}};
  RunnerOptions opt = devmon_runner("history");
  opt.n_epochs = 3;
  opt.ops_per_epoch = 20000;
  opt.n_threads = 2;
  opt.daemon.driver.stream.enabled = true;
  opt.mover.admission.mode = AdmissionMode::Adaptive;
  opt.tenants = small_fleet(2);
  opt.process_weights = {2.0, 1.0, 1.0};
  opt.mover.min_rank = 1;
  opt.telemetry = &tel;
  return final_frames("runner-everything", opt, [](const RunnerOptions& o) {
    return EndToEndRunner::run(fleet_factory(), devmon_chain_config(), o);
  });
}

/// The sections the everything run leaves absent: oracle rankings and the
/// BadgerTrap emulation state, with a serial, non-streaming telemetry.
std::vector<Frame> oracle_trap_runner_frames() {
  telemetry::Telemetry tel{telemetry::TelemetryConfig{}};
  RunnerOptions opt = tiny_runner("oracle");
  opt.n_epochs = 3;
  opt.ops_per_epoch = 20000;
  opt.slow_model = SlowMemoryModel::BadgerTrapEmulation;
  opt.telemetry = &tel;
  return final_frames("runner-oracle-trap", opt, [](const RunnerOptions& o) {
    return EndToEndRunner::run(workloads::find_spec("gups", 0.05),
                               tiny_config(), o);
  });
}

CollectOptions tiny_collect() {
  CollectOptions opt;
  opt.n_epochs = 3;
  opt.ops_per_epoch = 20000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(256);
  return opt;
}

std::vector<Frame> default_collect_frames() {
  return final_frames("collect-default", tiny_collect(),
                      [](const CollectOptions& o) {
                        return collect_series(
                            workloads::find_spec("gups", 0.05), tiny_config(),
                            o);
                      });
}

/// Collect on a pool with DevMon on a 3-tier chain and telemetry;
/// `stream` adds the streaming transport.
std::vector<Frame> layered_collect_frames(bool stream) {
  telemetry::Telemetry tel{telemetry::TelemetryConfig{}};
  CollectOptions opt = tiny_collect();
  opt.n_threads = 2;
  opt.daemon.driver.stream.enabled = stream;
  opt.daemon.driver.devmon.enabled = true;
  opt.telemetry = &tel;
  return final_frames(stream ? "collect-stream" : "collect-layered", opt,
                      [](const CollectOptions& o) {
                        return collect_series(
                            workloads::find_spec("gups", 0.05),
                            devmon_chain_config(), o);
                      });
}

/// The backticked names of the "What is checkpointed" bullet for `driver`
/// in docs/RECOVERY.md, in order.
std::vector<std::string> documented_sections(const std::string& driver) {
  std::ifstream in(std::string(TMPROF_SOURCE_DIR) + "/docs/RECOVERY.md");
  EXPECT_TRUE(in) << "docs/RECOVERY.md not found";
  std::string bullet;
  for (std::string line; std::getline(in, line);) {
    if (bullet.empty()) {
      if (line.rfind("* `" + driver + "`", 0) == 0) bullet = line;
    } else if (line.empty() || line[0] == '*') {
      break;
    } else {
      bullet += " " + line;
    }
  }
  const std::size_t list = bullet.find("sections");
  EXPECT_NE(list, std::string::npos) << "no section list for " << driver;
  std::vector<std::string> names;
  for (std::size_t open = bullet.find('`', list); open != std::string::npos;
       open = bullet.find('`', open)) {
    const std::size_t close = bullet.find('`', open + 1);
    names.push_back(bullet.substr(open + 1, close - open - 1));
    open = close + 1;
  }
  return names;
}

TEST(CkptLayout, SectionListsMatchRecoveryDoc) {
  const std::vector<std::string> runner =
      documented_sections("tiering::EndToEndRunner::run");
  const std::vector<std::string> collect =
      documented_sections("tiering::collect_series");
  ASSERT_EQ(runner.size(), 13U);
  ASSERT_EQ(collect.size(), 6U);
  EXPECT_EQ(names_of(default_runner_frames()), runner);
  EXPECT_EQ(names_of(everything_runner_frames()), runner);
  EXPECT_EQ(names_of(default_collect_frames()), collect);
  EXPECT_EQ(names_of(layered_collect_frames(true)), collect);
}

/// Expects `got` to equal `want` frame for frame; `skip_payload` names a
/// section whose payload is host-dependent, so only its name is compared.
void expect_frames(const std::vector<Frame>& got,
                   const std::vector<Frame>& want,
                   const std::string& skip_payload = "") {
  ASSERT_EQ(got.size(), want.size()) << ::testing::PrintToString(got);
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i].name == skip_payload) {
      EXPECT_EQ(got[i].name, want[i].name);
    } else {
      EXPECT_EQ(got[i], want[i]) << "section " << i;
    }
  }
}

TEST(CkptLayout, SectionBytesAreGolden) {
  // Recorded from the hand-written section lists the manifest replaced;
  // any change to a section's payload bytes is a format change. The
  // streaming run's telemetry carries the host-clock stream_seal_ns gauge.
  // The "daemon" entries were re-recorded for format 3, which dropped the
  // driver's cumulative trace/A-bit maps.
  expect_frames(everything_runner_frames(),
                {{"meta", 48, 0x41982e3d},
                 {"system", 534712, 0xe251e821},
                 {"daemon", 22377, 0x63bffa84},
                 {"devmon", 6758, 0xb16161e0},
                 {"stream", 49, 0xb1ed5ed7},
                 {"mover", 181, 0xd65f58a5},
                 {"admission", 27784, 0x882db85c},
                 {"tenant", 322, 0x09cc20fd},
                 {"policy", 1, 0xa505df1b},
                 {"trap", 1, 0xd202ef8d},
                 {"oracle", 1, 0xd202ef8d},
                 {"runner", 104, 0xd0fd7b7f},
                 {"telemetry", 3814, 0x0}},
                "telemetry");
  expect_frames(oracle_trap_runner_frames(),
                {{"meta", 47, 0xe91cf81e},
                 {"system", 666732, 0x580a35dd},
                 {"daemon", 4709, 0x0f4d7afa},
                 {"devmon", 1, 0xd202ef8d},
                 {"stream", 1, 0xd202ef8d},
                 {"mover", 96, 0x7c9b6c29},
                 {"admission", 2, 0x41d912ff},
                 {"tenant", 1, 0xd202ef8d},
                 {"policy", 1, 0xd202ef8d},
                 {"trap", 311, 0x669bb7e4},
                 {"oracle", 1473, 0xc8051967},
                 {"runner", 104, 0x5c874080},
                 {"telemetry", 2501, 0xa7a045e1}});
  expect_frames(layered_collect_frames(false),
                {{"meta", 36, 0xae48b0dc},
                 {"system", 667296, 0xf090ba15},
                 {"daemon", 4389, 0x037eb5ba},
                 {"truth", 514, 0x7d9111e2},
                 {"series", 2520, 0x81549fe2},
                 {"telemetry", 2302, 0x0741cbc1}});
}

}  // namespace
}  // namespace tmprof::tiering
