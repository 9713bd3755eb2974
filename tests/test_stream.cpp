/// Streaming sample-transport tests (docs/STREAMING.md): lane layout and
/// drop accounting, end-to-end bitwise equivalence of streaming vs.
/// barrier mode, thread-count invariance ({1,8} threads, with and without
/// fault injection), kill/resume consistency through the "stream"
/// checkpoint section and its rejection paths, and conditional telemetry
/// registration. Suite names carry the `Stream` prefix so the CI
/// fault matrix and the TSan preset pick them up.

#include "core/stream.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "tiering/options.hpp"
#include "tiering/runner.hpp"
#include "util/ckpt.hpp"
#include "workloads/registry.hpp"

namespace tmprof {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// StreamTransport lane plumbing.

TEST(StreamTransport, LaneLayoutAndDropAccounting) {
  core::StreamConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 4;
  core::StreamTransport transport(cfg, 3);
  EXPECT_EQ(transport.lanes(), 3U);  // one trace lane per core, no more
  monitors::StreamRecord rec{};
  for (int i = 0; i < 6; ++i) (void)transport.ring(0).try_push(rec);
  for (int i = 0; i < 5; ++i) (void)transport.ring(2).try_push(rec);
  EXPECT_EQ(transport.drops_total(), 3U);  // 2 on lane 0 + 1 on lane 2
  EXPECT_EQ(transport.high_water(), 4U);
  transport.set_carried_drops(10);  // checkpoint-restored base is additive
  EXPECT_EQ(transport.drops_total(), 13U);
  transport.reset_high_water();
  EXPECT_EQ(transport.high_water(), 0U);
  EXPECT_EQ(transport.drops_total(), 13U);  // drops stay cumulative
}

// ---------------------------------------------------------------------------
// End-to-end: streaming vs. barrier, thread-count invariance, resume.

sim::SimConfig stream_config() {
  sim::SimConfig cfg;
  cfg.cores = 4;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 10;
  cfg.tier2_frames = 1 << 16;
  return cfg;
}

tiering::RunnerOptions stream_options(const std::string& policy,
                                      std::uint32_t n_threads,
                                      bool streaming) {
  tiering::RunnerOptions opt;
  opt.policy = policy;
  opt.n_epochs = 3;
  opt.ops_per_epoch = 30000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
  opt.n_threads = n_threads;
  opt.daemon.driver.stream.enabled = streaming;
  // Tiny rings force the overflow-spill path; spilled records must be
  // folded identically to ring-delivered ones, so results cannot change.
  opt.daemon.driver.stream.ring_capacity = 64;
  return opt;
}

void expect_identical(const tiering::RunnerResult& a,
                      const tiering::RunnerResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.runtime_ns, b.runtime_ns) << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.tier1_hitrate),
            std::bit_cast<std::uint64_t>(b.tier1_hitrate))
      << label << " hitrate " << a.tier1_hitrate << " vs " << b.tier1_hitrate;
  EXPECT_EQ(a.migrations, b.migrations) << label;
  EXPECT_EQ(a.protection_faults, b.protection_faults) << label;
  EXPECT_EQ(a.profiling_overhead_ns, b.profiling_overhead_ns) << label;
  EXPECT_EQ(a.moves.promoted, b.moves.promoted) << label;
  EXPECT_EQ(a.moves.demoted, b.moves.demoted) << label;
  EXPECT_EQ(a.degrade.trace_dropped, b.degrade.trace_dropped) << label;
}

TEST(StreamDeterminism, StreamingMatchesBarrierModeBitwise) {
  // The sealed observation maps are a pure function of the simulation, so
  // flipping the transport must not change a single bit of the result.
  const auto spec = workloads::find_spec("data_caching", 0.1);
  const sim::SimConfig cfg = stream_config();
  for (const char* policy : {"history", "freq-decay", "oracle"}) {
    const tiering::RunnerResult barrier = tiering::EndToEndRunner::run(
        spec, cfg, stream_options(policy, 1, false));
    const tiering::RunnerResult streamed = tiering::EndToEndRunner::run(
        spec, cfg, stream_options(policy, 1, true));
    expect_identical(streamed, barrier, std::string(policy) + " [stream]");
  }
}

TEST(StreamDeterminism, ThreadCountInvariant) {
  // {1, 8} threads: with 8 workers the pump really runs concurrently with
  // shard execution (mid-epoch consumption order varies wildly), yet every
  // output bit must match the inline run.
  const auto spec = workloads::find_spec("data_caching", 0.1);
  const sim::SimConfig cfg = stream_config();
  const tiering::RunnerResult t1 =
      tiering::EndToEndRunner::run(spec, cfg, stream_options("history", 1, true));
  const tiering::RunnerResult t2 =
      tiering::EndToEndRunner::run(spec, cfg, stream_options("history", 2, true));
  const tiering::RunnerResult t8 =
      tiering::EndToEndRunner::run(spec, cfg, stream_options("history", 8, true));
  expect_identical(t1, t2, "streaming [1 vs 2 threads]");
  expect_identical(t1, t8, "streaming [1 vs 8 threads]");
}

TEST(StreamDeterminism, FaultInjectionStaysThreadCountInvariant) {
  // Streaming fault keys are (epoch, lane, seq) — independent of when the
  // pump consumed the record — so the injected drop set, and therefore the
  // whole run, is invariant to consumer scheduling.
  const auto spec = workloads::find_spec("data_caching", 0.1);
  const sim::SimConfig cfg = stream_config();
  tiering::RunnerOptions t1 = stream_options("history", 1, true);
  t1.fault.rate = 0.01;
  t1.fault.seed = 0xf00d;
  tiering::RunnerOptions t8 = t1;
  t8.n_threads = 8;
  const tiering::RunnerResult r1 = tiering::EndToEndRunner::run(spec, cfg, t1);
  const tiering::RunnerResult r8 = tiering::EndToEndRunner::run(spec, cfg, t8);
  expect_identical(r1, r8, "streaming+faults [1 vs 8 threads]");
}

/// Expects `options` to be rejected up front as a config error naming
/// `daemon.driver.stream.enabled` and the rule `rule_part` belongs to.
void expect_stream_rejected(const tiering::RunnerOptions& options,
                            const std::string& rule_part) {
  const auto spec = workloads::find_spec("gups", 0.05);
  try {
    (void)tiering::EndToEndRunner::run(spec, stream_config(), options);
    FAIL() << "expected tiering::ConfigError";
  } catch (const tiering::ConfigError& e) {
    EXPECT_EQ(e.field(), "daemon.driver.stream.enabled");
    EXPECT_NE(std::string(e.what()).find(rule_part), std::string::npos)
        << e.what();
  }
}

TEST(StreamDeterminism, RequiresShardedEngine) {
  // Serial engine (n_threads = 0) has no per-core lanes to stream from.
  expect_stream_rejected(stream_options("history", 0, true),
                         "sharded engine");
}

TEST(StreamResume, KillResumeIsBitwiseConsistent) {
  // Transport tallies ride in the "stream" checkpoint section: a run
  // killed after epoch 3 and resumed must finish bitwise identical to the
  // uninterrupted streaming run.
  const auto spec = workloads::find_spec("gups", 0.05);
  const sim::SimConfig cfg = stream_config();
  tiering::RunnerOptions base = stream_options("history", 1, true);
  base.n_epochs = 5;
  const tiering::RunnerResult reference =
      tiering::EndToEndRunner::run(spec, cfg, base);

  const fs::path dir = fs::path(::testing::TempDir()) / "tmprof-stream-resume";
  fs::remove_all(dir);
  fs::create_directories(dir);
  tiering::RunnerOptions ck = base;
  ck.checkpoint.every = 1;
  ck.checkpoint.dir = dir.string();
  ck.checkpoint.keep_last = 16;
  (void)tiering::EndToEndRunner::run(spec, cfg, ck);

  tiering::RunnerOptions resume = base;
  resume.checkpoint.resume_from =
      util::ckpt::checkpoint_path(dir.string(), "ckpt", 3);
  ASSERT_TRUE(fs::exists(resume.checkpoint.resume_from));
  const tiering::RunnerResult resumed =
      tiering::EndToEndRunner::run(spec, cfg, resume);
  expect_identical(resumed, reference, "stream resume");
}

TEST(StreamResume, PresenceMismatchFallsBackToColdStart) {
  // A checkpoint written without streaming cannot silently resume into a
  // streaming run: the "stream" section rejects, and the cold start must
  // still produce the bitwise-correct streaming result.
  const auto spec = workloads::find_spec("gups", 0.05);
  const sim::SimConfig cfg = stream_config();
  const tiering::RunnerResult reference = tiering::EndToEndRunner::run(
      spec, cfg, stream_options("history", 1, true));

  const fs::path dir = fs::path(::testing::TempDir()) / "tmprof-stream-mis";
  fs::remove_all(dir);
  fs::create_directories(dir);
  tiering::RunnerOptions off = stream_options("history", 1, false);
  off.checkpoint.every = 1;
  off.checkpoint.dir = dir.string();
  off.checkpoint.keep_last = 16;
  (void)tiering::EndToEndRunner::run(spec, cfg, off);

  tiering::RunnerOptions resume = stream_options("history", 1, true);
  resume.checkpoint.resume_from =
      util::ckpt::checkpoint_path(dir.string(), "ckpt", 2);
  ASSERT_TRUE(fs::exists(resume.checkpoint.resume_from));
  const tiering::RunnerResult resumed =
      tiering::EndToEndRunner::run(spec, cfg, resume);
  expect_identical(resumed, reference, "presence mismatch cold start");
}

/// Writes a streaming checkpoint every epoch into a fresh `tag` directory
/// and returns the path of the epoch-2 image.
std::string streaming_checkpoint(const std::string& tag,
                                 const tiering::RunnerOptions& base) {
  const fs::path dir = fs::path(::testing::TempDir()) / tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  tiering::RunnerOptions ck = base;
  ck.checkpoint.every = 1;
  ck.checkpoint.dir = dir.string();
  ck.checkpoint.keep_last = 16;
  (void)tiering::EndToEndRunner::run(workloads::find_spec("gups", 0.05),
                                     stream_config(), ck);
  const std::string path = util::ckpt::checkpoint_path(dir.string(), "ckpt", 2);
  EXPECT_TRUE(fs::exists(path));
  return path;
}

/// Resumes `options` from `path` and returns the run's result; `warning`
/// receives stderr, where a rejected resume names its section.
tiering::RunnerResult resume_capturing(const std::string& path,
                                       tiering::RunnerOptions options,
                                       std::string& warning) {
  options.checkpoint.resume_from = path;
  ::testing::internal::CaptureStderr();
  const tiering::RunnerResult result = tiering::EndToEndRunner::run(
      workloads::find_spec("gups", 0.05), stream_config(), options);
  warning = ::testing::internal::GetCapturedStderr();
  return result;
}

TEST(StreamResume, RingCapacityMismatchFallsBackToColdStart) {
  // Ring capacity is transport geometry: a resume with a different one
  // rejects the "stream" section and still yields the cold-run result.
  tiering::RunnerOptions other_ring = stream_options("history", 1, true);
  other_ring.daemon.driver.stream.ring_capacity = 128;
  const tiering::RunnerResult reference = tiering::EndToEndRunner::run(
      workloads::find_spec("gups", 0.05), stream_config(), other_ring);

  const std::string path = streaming_checkpoint(
      "tmprof-stream-ring", stream_options("history", 1, true));
  std::string warning;
  const tiering::RunnerResult resumed =
      resume_capturing(path, other_ring, warning);
  EXPECT_NE(warning.find("rejected in section 'stream'"), std::string::npos)
      << warning;
  expect_identical(resumed, reference, "ring capacity mismatch cold start");
}

/// Re-frames `image` with its "stream" payload replaced by what `rewrite`
/// writes from the original payload bytes. Every other section is copied
/// verbatim; the Writer recomputes each CRC.
std::vector<std::uint8_t> with_stream_payload(
    const std::vector<std::uint8_t>& image,
    const std::function<void(util::ckpt::Writer&, const std::uint8_t*,
                             std::size_t)>& rewrite) {
  const auto le = [&image](std::size_t at, std::size_t bytes) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(image[at + i]) << (8 * i);
    }
    return v;
  };
  util::ckpt::Writer w;
  std::size_t pos = util::ckpt::kHeaderSize;
  while (pos < image.size()) {
    const std::size_t name_len = le(pos, 4);
    const std::string name(
        reinterpret_cast<const char*>(image.data() + pos + 4), name_len);
    pos += 4 + name_len;
    const std::size_t size = le(pos, 8);
    const std::uint8_t* payload = image.data() + pos + 8;
    pos += 8 + size + 4;
    w.begin_section(name);
    if (name == "stream") {
      rewrite(w, payload, size);
    } else {
      w.put_bytes(payload, size);
    }
    w.end_section();
  }
  return w.finish();
}

/// The older "stream" layout that also carried the advisory ranker: a
/// top-K/decay-shift echo after the transport geometry, and the ranker's
/// heat map at the end.
void write_ranker_stream_payload(util::ckpt::Writer& w,
                                 const std::uint8_t* payload,
                                 std::size_t size) {
  // presence byte + ring capacity + trace lanes
  constexpr std::size_t kGeometry = 1 + 4 + 4;
  EXPECT_GT(size, kGeometry);
  w.put_bytes(payload, kGeometry);
  w.put_u32(256);  // top-K echo
  w.put_u32(1);    // decay-shift echo
  w.put_bytes(payload + kGeometry, size - kGeometry);
  w.put_u32(256);  // ranker top-K
  w.put_u32(1);    // ranker decay shift
  w.put_u64(1);    // one tracked page: pid, page_va, heat
  w.put_u64(1);
  w.put_u64(0x1000);
  w.put_u64(7);
}

/// Writes `image` with its "stream" payload rewritten as the file
/// `<path>.parent` and checks that a resume from it cold-starts with a
/// warning naming the section.
void expect_stream_payload_cold_starts(
    const std::string& path,
    const std::function<void(util::ckpt::Writer&, const std::uint8_t*,
                             std::size_t)>& rewrite) {
  const tiering::RunnerOptions options = stream_options("history", 1, true);
  const tiering::RunnerResult reference = tiering::EndToEndRunner::run(
      workloads::find_spec("gups", 0.05), stream_config(), options);
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> image(std::istreambuf_iterator<char>(in),
                                        {});
  in.close();
  const std::string parent = path + ".parent";
  util::ckpt::Writer::save_atomic(parent, with_stream_payload(image, rewrite));
  (void)util::ckpt::Reader::from_file(parent);  // framing and CRCs are valid

  std::string warning;
  const tiering::RunnerResult resumed =
      resume_capturing(parent, options, warning);
  EXPECT_NE(warning.find("rejected in section 'stream'"), std::string::npos)
      << warning;
  expect_identical(resumed, reference, "parent-layout image cold start");
}

TEST(StreamResume, ParentLayoutImageColdStarts) {
  // An image from before the ranker was removed carries extra "stream"
  // bytes; the manifest's full-consumption check rejects the section and
  // the run cold-starts instead of misreading the tallies.
  expect_stream_payload_cold_starts(
      streaming_checkpoint("tmprof-stream-parent",
                           stream_options("history", 1, true)),
      write_ranker_stream_payload);
}

TEST(StreamResume, LaneCursorImageColdStarts) {
  // The "stream" section used to end with the A-bit and DevMon lane seq
  // cursors: 49 bytes where it now has 41. Those sources no longer ride
  // the rings, so such an image is rejected and the run cold-starts.
  expect_stream_payload_cold_starts(
      streaming_checkpoint("tmprof-stream-cursors",
                           stream_options("history", 1, true)),
      [](util::ckpt::Writer& w, const std::uint8_t* payload,
         std::size_t size) {
        EXPECT_EQ(size, 41U);
        w.put_bytes(payload, size);
        w.put_u32(12);  // A-bit lane seq
        w.put_u32(3);   // DevMon lane seq
      });
}

// ---------------------------------------------------------------------------
// Telemetry registration gate.

std::string prometheus_of(const telemetry::Telemetry& t) {
  std::ostringstream os;
  t.write_prometheus(os);
  return os.str();
}

TEST(StreamTelemetry, MetricsRegisterOnlyWhenStreaming) {
  const auto spec = workloads::find_spec("gups", 0.05);
  const sim::SimConfig cfg = stream_config();

  telemetry::Telemetry off{telemetry::TelemetryConfig{}};
  tiering::RunnerOptions off_opt = stream_options("history", 1, false);
  off_opt.telemetry = &off;
  (void)tiering::EndToEndRunner::run(spec, cfg, off_opt);
  // Off-mode exports carry no trace of the streaming subsystem: the cells
  // are never resolved, so the byte stream matches the pre-streaming one.
  EXPECT_EQ(prometheus_of(off).find("stream_"), std::string::npos);

  telemetry::Telemetry on{telemetry::TelemetryConfig{}};
  tiering::RunnerOptions on_opt = stream_options("history", 1, true);
  on_opt.telemetry = &on;
  (void)tiering::EndToEndRunner::run(spec, cfg, on_opt);
  EXPECT_GT(on.metrics().counter_value("stream_records_total"), 0U);
  EXPECT_NE(prometheus_of(on).find("stream_ring_depth"), std::string::npos);
  EXPECT_NE(prometheus_of(on).find("stream_ring_drops_total"),
            std::string::npos);
  EXPECT_NE(prometheus_of(on).find("stream_seal_ns"), std::string::npos);
}

TEST(StreamTelemetry, RecordCountIsThreadCountInvariant) {
  // Ring depth and drop tallies are scheduling-dependent by design, but the
  // number of records *consumed* equals the number produced — a pure
  // function of the simulation, identical at every thread count.
  const auto spec = workloads::find_spec("gups", 0.05);
  const sim::SimConfig cfg = stream_config();
  telemetry::Telemetry t1{telemetry::TelemetryConfig{}};
  telemetry::Telemetry t8{telemetry::TelemetryConfig{}};
  tiering::RunnerOptions o1 = stream_options("history", 1, true);
  o1.telemetry = &t1;
  tiering::RunnerOptions o8 = stream_options("history", 8, true);
  o8.telemetry = &t8;
  (void)tiering::EndToEndRunner::run(spec, cfg, o1);
  (void)tiering::EndToEndRunner::run(spec, cfg, o8);
  const std::uint64_t n1 = t1.metrics().counter_value("stream_records_total");
  EXPECT_GT(n1, 0U);
  EXPECT_EQ(n1, t8.metrics().counter_value("stream_records_total"));
}

}  // namespace
}  // namespace tmprof
