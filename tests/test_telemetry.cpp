/// Telemetry subsystem tests (docs/OBSERVABILITY.md): null-handle no-ops,
/// registry semantics, shard-merge partition invariance, span-ring
/// overflow accounting, exporter formats, and the end-to-end determinism
/// contract — exports bitwise identical across engine thread counts and
/// across checkpoint/resume, and a *disabled* sink perturbing nothing.

#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/export.hpp"
#include "tiering/runner.hpp"
#include "util/assert.hpp"
#include "util/ckpt.hpp"
#include "workloads/registry.hpp"

namespace tmprof::telemetry {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Handles and registry.

TEST(Telemetry, NullHandlesAreNoOps) {
  const Counter c;
  const Gauge g;
  const HistogramHandle h;
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(g));
  EXPECT_FALSE(static_cast<bool>(h));
  // Must not crash — this is the telemetry-disabled hot path.
  c.add(7);
  c.inc();
  g.set(42);
  h.observe(3, 2);
}

TEST(Telemetry, RegistryResolvesAndAccumulates) {
  MetricsRegistry m;
  const Counter a = m.counter("reqs_total");
  const Counter b = m.counter("reqs_total");  // same cell
  a.add(2);
  b.inc();
  EXPECT_EQ(m.counter_value("reqs_total"), 3U);

  const Gauge depth = m.gauge("queue_depth");
  depth.set(9);
  depth.set(4);
  EXPECT_EQ(m.gauge_value("queue_depth"), 4U);

  const HistogramHandle lat = m.histogram("latency_ns", 0, 100, 10);
  lat.observe(5);
  lat.observe(15, 2);
  const util::Histogram& hist = m.histograms().at("latency_ns");
  EXPECT_EQ(hist.total(), 3U);
  EXPECT_EQ(hist.value_sum(), 35U);
  // Unregistered names read as zero rather than throwing.
  EXPECT_EQ(m.counter_value("never_registered_total"), 0U);
}

TEST(Telemetry, RegistryRejectsBadNames) {
  MetricsRegistry m;
  EXPECT_THROW((void)m.counter(""), util::AssertionError);
  EXPECT_THROW((void)m.counter("Bad-Name"), util::AssertionError);
  EXPECT_THROW((void)m.gauge("has space"), util::AssertionError);
  EXPECT_THROW((void)m.histogram("UPPER", 0, 1, 1), util::AssertionError);
  // Re-registering a histogram with a different shape is a bug.
  (void)m.histogram("h", 0, 100, 10);
  EXPECT_THROW((void)m.histogram("h", 0, 200, 10), util::AssertionError);
}

TEST(Telemetry, ShardMergeIsPartitionInvariant) {
  // The same logical adds, partitioned across different shard layouts,
  // must merge to bitwise-identical global cells.
  MetricsRegistry one;
  one.ensure_shards(1);
  MetricsRegistry four;
  four.ensure_shards(4);
  for (std::uint64_t i = 0; i < 32; ++i) {
    one.shard_counter(0, "ops_total").add(i);
    four.shard_counter(i % 4, "ops_total").add(i);
    one.shard_histogram(0, "lat", 0, 64, 8).observe(i);
    four.shard_histogram(i % 4, "lat", 0, 64, 8).observe(i);
  }
  one.merge_shards();
  four.merge_shards();
  EXPECT_EQ(one.counter_value("ops_total"), four.counter_value("ops_total"));
  std::ostringstream a, b;
  write_prometheus(a, one);
  write_prometheus(b, four);
  EXPECT_EQ(a.str(), b.str());

  // Merge drains the shard cells: a second barrier adds nothing.
  const std::uint64_t after_first = four.counter_value("ops_total");
  four.merge_shards();
  EXPECT_EQ(four.counter_value("ops_total"), after_first);
}

// ---------------------------------------------------------------------------
// Span tracer.

TEST(Telemetry, TracerOverflowIsCounted) {
  Telemetry t(TelemetryConfig{});
  t.begin_run("overflow");
  const int spans = static_cast<int>(kSpanCapacity) + 2;
  for (int i = 0; i < spans; ++i) {
    // libstdc++'s operator+ trips a -Wrestrict false positive once inlined
    // (char_traits.h memcpy); the concatenation itself is well-defined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
    t.span("s" + std::to_string(i), static_cast<util::SimNs>(i * 10),
           static_cast<util::SimNs>(i * 10 + 5));
#pragma GCC diagnostic pop
  }
  EXPECT_EQ(t.tracer().size(), 65536U);
  EXPECT_EQ(t.tracer().overwritten(), 2U);
  EXPECT_EQ(t.metrics().counter_value("telemetry_spans_dropped_total"), 2U);
  // The ring keeps the most recent spans, oldest-first.
  const std::vector<Span> kept = t.tracer().spans_in_order();
  ASSERT_EQ(kept.size(), 65536U);
  EXPECT_EQ(kept.front().name, "s2");
  EXPECT_EQ(kept.back().name, "s65537");
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(Telemetry, BeginRunIsIdempotentForRepeatedLabel) {
  // A rejected resume falls back to a cold start that re-begins the same
  // run; the retry must reuse the pid so exports match a fresh run.
  Telemetry t(TelemetryConfig{});
  EXPECT_EQ(t.begin_run("case/run"), 1U);
  EXPECT_EQ(t.begin_run("case/run"), 1U);  // aborted attempt, retried
  EXPECT_EQ(t.current_pid(), 1U);
  EXPECT_EQ(t.begin_run("case/other"), 2U);
  EXPECT_EQ(t.begin_run("case/run"), 3U);  // not consecutive: a new group
  std::ostringstream os;
  t.write_chrome(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_EQ(json.find("\"pid\":4"), std::string::npos);
}

TEST(Telemetry, ChromeTraceIsBalancedAndLabelled) {
  Telemetry t(TelemetryConfig{});
  const std::uint32_t pid = t.begin_run("run one");
  EXPECT_EQ(pid, 1U);
  t.span("outer", 0, 100, kTidRunner);
  t.span("inner", 10, 40, kTidRunner);
  t.span("inner", 50, 90, kTidRunner);
  t.span("tick", 20, 60, kTidDaemon);
  // A defensively-clamped overlap: "leak" straddles outer's end.
  t.span("leak", 95, 150, kTidRunner);
  std::ostringstream os;
  t.write_chrome(os);
  const std::string json = os.str();

  const auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
  EXPECT_EQ(count("\"ph\":\"B\""), 5U);
  EXPECT_EQ(count("\"ph\":\"M\""), 1U);
  EXPECT_NE(json.find("\"name\":\"run one\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.substr(json.size() - 2), "}\n");
}

TEST(Telemetry, PrometheusTextFormat) {
  MetricsRegistry m;
  m.counter("ops_total").add(3);
  m.gauge("depth").set(7);
  const HistogramHandle h = m.histogram("lat", 0, 30, 3);
  h.observe(5);          // bucket [0, 10)
  h.observe(25, 2);      // bucket [20, 30)
  h.observe(1000);       // overflow: only +Inf sees it
  std::ostringstream os;
  write_prometheus(os, m);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE tmprof_ops_total counter\ntmprof_ops_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tmprof_depth gauge\ntmprof_depth 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("tmprof_lat_bucket{le=\"10\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("tmprof_lat_bucket{le=\"30\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("tmprof_lat_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("tmprof_lat_sum 1055\n"), std::string::npos);
  EXPECT_NE(text.find("tmprof_lat_count 4\n"), std::string::npos);
}

TEST(Telemetry, MaybeExportHonorsInterval) {
  const fs::path dir = fs::path(::testing::TempDir()) / "tmprof-telemetry";
  fs::remove_all(dir);
  fs::create_directories(dir);
  TelemetryConfig cfg;
  cfg.metrics_out = (dir / "metrics.prom").string();
  cfg.export_every = 2;
  Telemetry t(cfg);
  t.maybe_export(1);
  EXPECT_FALSE(fs::exists(cfg.metrics_out));
  t.maybe_export(2);
  ASSERT_TRUE(fs::exists(cfg.metrics_out));
  t.export_final();
  std::ifstream is(cfg.metrics_out);
  std::stringstream buf;
  buf << is.rdbuf();
  // The export counter observes itself: interval export + final export.
  EXPECT_NE(buf.str().find("tmprof_telemetry_exports_total 2\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Export file replacement: every export replaces the files whole through
// `<path>.tmp` (never truncating or renaming onto the old file).

/// Fresh empty directory under the gtest temp root, named after the test.
fs::path export_dir() {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      (std::string("tmprof-export-") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TelemetryConfig export_config(const fs::path& dir) {
  TelemetryConfig cfg;
  cfg.metrics_out = (dir / "m.prom").string();
  cfg.trace_out = (dir / "t.trace.json").string();
  cfg.export_every = 1;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

/// The two files on disk equal what `t` renders in memory, byte for byte.
void expect_files_match(const Telemetry& t) {
  std::ostringstream prom;
  t.write_prometheus(prom);
  std::ostringstream chrome;
  t.write_chrome(chrome);
  EXPECT_EQ(slurp(t.config().metrics_out), prom.str());
  EXPECT_EQ(slurp(t.config().trace_out), chrome.str());
  EXPECT_FALSE(fs::exists(t.config().metrics_out + ".tmp"));
  EXPECT_FALSE(fs::exists(t.config().trace_out + ".tmp"));
}

TEST(TelemetryExport, SmallerExportLeavesNoStaleTail) {
  const fs::path dir = export_dir();
  Telemetry big(export_config(dir));
  big.begin_run("big");
  for (std::uint64_t i = 0; i < 500; ++i) {
    // Same libstdc++ -Wrestrict false positive as TracerOverflowIsCounted.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
    big.metrics().counter("c" + std::to_string(i) + "_total").add(i);
#pragma GCC diagnostic pop
    big.span("s", i * 10, i * 10 + 5);
  }
  big.export_final();
  expect_files_match(big);
  const auto big_sizes = std::make_pair(fs::file_size(big.config().metrics_out),
                                        fs::file_size(big.config().trace_out));

  // A second sink exporting far less to the same paths: an in-place
  // overwrite would leave the first export's tail behind.
  Telemetry small(export_config(dir));
  small.begin_run("small");
  small.span("only", 0, 1);
  small.export_final();
  expect_files_match(small);
  EXPECT_LT(fs::file_size(small.config().metrics_out), big_sizes.first);
  EXPECT_LT(fs::file_size(small.config().trace_out), big_sizes.second);
}

TEST(TelemetryExport, NoTempFileRemains) {
  const fs::path dir = export_dir();
  Telemetry t(export_config(dir));
  t.begin_run("run");
  for (std::uint32_t epoch = 1; epoch <= 3; ++epoch) {
    t.span("epoch", epoch * 100, epoch * 100 + 50);
    t.maybe_export(epoch);
    expect_files_match(t);
  }
  t.export_final();
  expect_files_match(t);
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    ++entries;
  }
  EXPECT_EQ(entries, 2U);
}

TEST(TelemetryExport, StaleTempFileFromKilledRunIsReplaced) {
  const fs::path dir = export_dir();
  Telemetry t(export_config(dir));
  // A run killed between writing the temporary and renaming it leaves a
  // (possibly larger, possibly torn) `.tmp` behind.
  for (const std::string& path : {t.config().metrics_out,
                                   t.config().trace_out}) {
    std::ofstream(path + ".tmp") << std::string(8192, 'x');
    std::ofstream(path) << "old export\n";
  }
  t.begin_run("resumed");
  t.span("epoch", 0, 10);
  t.export_final();
  expect_files_match(t);
}

TEST(TelemetryExport, MissingDirectoryWarnsAndContinues) {
  const fs::path dir = export_dir() / "does-not-exist";
  Telemetry t(export_config(dir));
  t.begin_run("run");
  ::testing::internal::CaptureStderr();
  t.maybe_export(1);
  t.export_final();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("telemetry: cannot write metrics"), std::string::npos)
      << err;
  EXPECT_NE(err.find("telemetry: cannot write trace"), std::string::npos)
      << err;
  EXPECT_FALSE(fs::exists(dir));
  // The run goes on: the sink still records and counts its exports.
  t.span("after", 0, 1);
  EXPECT_EQ(t.metrics().counter_value("telemetry_exports_total"), 2U);
}

// ---------------------------------------------------------------------------
// End-to-end determinism contract.

sim::SimConfig e2e_config() {
  sim::SimConfig cfg;
  cfg.cores = 4;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 10;
  cfg.tier2_frames = 1 << 16;
  return cfg;
}

tiering::RunnerOptions e2e_options(std::uint32_t n_threads,
                                   Telemetry* telemetry) {
  tiering::RunnerOptions opt;
  opt.policy = "history";
  opt.n_epochs = 3;
  opt.ops_per_epoch = 30000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
  opt.n_threads = n_threads;
  opt.telemetry = telemetry;
  opt.telemetry_label = "e2e";
  return opt;
}

/// Both export streams concatenated — the whole observable telemetry state.
std::string exports_of(const Telemetry& t) {
  std::ostringstream os;
  t.write_prometheus(os);
  t.write_chrome(os);
  return os.str();
}

TEST(Telemetry, RunnerExportIsThreadCountInvariant) {
  const auto spec = workloads::find_spec("gups", 0.05);
  Telemetry t1{TelemetryConfig{}};
  Telemetry t8{TelemetryConfig{}};
  (void)tiering::EndToEndRunner::run(spec, e2e_config(), e2e_options(1, &t1));
  (void)tiering::EndToEndRunner::run(spec, e2e_config(), e2e_options(8, &t8));
  EXPECT_GT(t1.metrics().counter_value("system_ops_total"), 0U);
  EXPECT_GT(t1.metrics().counter_value("runner_epochs_total"), 0U);
  EXPECT_GT(t1.tracer().size(), 0U);
  EXPECT_EQ(exports_of(t1), exports_of(t8));
}

TEST(Telemetry, AttachingTelemetryDoesNotPerturbResults) {
  const auto spec = workloads::find_spec("gups", 0.05);
  // Serial (n_threads = 0) and sharded engines, with and without a sink:
  // telemetry must never touch simulated state.
  for (const std::uint32_t threads : {0U, 2U}) {
    const tiering::RunnerResult plain = tiering::EndToEndRunner::run(
        spec, e2e_config(), e2e_options(threads, nullptr));
    Telemetry t{TelemetryConfig{}};
    const tiering::RunnerResult instrumented = tiering::EndToEndRunner::run(
        spec, e2e_config(), e2e_options(threads, &t));
    EXPECT_EQ(plain.runtime_ns, instrumented.runtime_ns) << threads;
    std::uint64_t ha = 0, hb = 0;
    std::memcpy(&ha, &plain.tier1_hitrate, sizeof ha);
    std::memcpy(&hb, &instrumented.tier1_hitrate, sizeof hb);
    EXPECT_EQ(ha, hb) << threads;
    EXPECT_EQ(plain.migrations, instrumented.migrations) << threads;
    EXPECT_EQ(plain.profiling_overhead_ns, instrumented.profiling_overhead_ns)
        << threads;
    // The instrumented run agrees with its own result: the registry's ops
    // counter is fed by the same accesses that produced the hitrate.
    EXPECT_GT(t.metrics().counter_value("system_ops_total"), 0U);
  }
}

TEST(Telemetry, ExportsSurviveCheckpointResume) {
  const auto spec = workloads::find_spec("gups", 0.05);
  Telemetry reference_sink{TelemetryConfig{}};
  (void)tiering::EndToEndRunner::run(spec, e2e_config(),
                                     e2e_options(1, &reference_sink));
  const std::string reference = exports_of(reference_sink);

  const fs::path dir = fs::path(::testing::TempDir()) / "tmprof-telem-resume";
  fs::remove_all(dir);
  fs::create_directories(dir);
  Telemetry ckpt_sink{TelemetryConfig{}};
  tiering::RunnerOptions opt = e2e_options(1, &ckpt_sink);
  opt.checkpoint.every = 1;
  opt.checkpoint.dir = dir.string();
  opt.checkpoint.keep_last = 16;
  (void)tiering::EndToEndRunner::run(spec, e2e_config(), opt);
  // The completed checkpointed run itself matches the reference.
  EXPECT_EQ(exports_of(ckpt_sink), reference);

  Telemetry resume_sink{TelemetryConfig{}};
  tiering::RunnerOptions resume = e2e_options(1, &resume_sink);
  resume.checkpoint.resume_from =
      util::ckpt::checkpoint_path(dir.string(), "ckpt", 2);
  ASSERT_TRUE(fs::exists(resume.checkpoint.resume_from));
  (void)tiering::EndToEndRunner::run(spec, e2e_config(), resume);
  EXPECT_EQ(exports_of(resume_sink), reference);
}

TEST(Telemetry, ResumePresenceMismatchFallsBackToColdStart) {
  // A checkpoint written with telemetry attached cannot silently resume
  // into a run without it (or vice versa): the runner rejects the section
  // and falls back to a cold start, which must still be bitwise correct.
  const auto spec = workloads::find_spec("gups", 0.05);
  const tiering::RunnerResult reference = tiering::EndToEndRunner::run(
      spec, e2e_config(), e2e_options(1, nullptr));

  const fs::path dir = fs::path(::testing::TempDir()) / "tmprof-telem-mis";
  fs::remove_all(dir);
  fs::create_directories(dir);
  Telemetry sink{TelemetryConfig{}};
  tiering::RunnerOptions opt = e2e_options(1, &sink);
  opt.checkpoint.every = 1;
  opt.checkpoint.dir = dir.string();
  opt.checkpoint.keep_last = 16;
  (void)tiering::EndToEndRunner::run(spec, e2e_config(), opt);

  tiering::RunnerOptions resume = e2e_options(1, nullptr);
  resume.checkpoint.resume_from =
      util::ckpt::checkpoint_path(dir.string(), "ckpt", 2);
  ASSERT_TRUE(fs::exists(resume.checkpoint.resume_from));
  const tiering::RunnerResult resumed =
      tiering::EndToEndRunner::run(spec, e2e_config(), resume);
  EXPECT_EQ(reference.runtime_ns, resumed.runtime_ns);
  EXPECT_EQ(reference.migrations, resumed.migrations);
}

TEST(Telemetry, StateRoundTripsThroughCheckpoint) {
  const TelemetryConfig cfg;
  Telemetry t(cfg);
  t.begin_run("alpha");
  t.metrics().counter("ops_total").add(11);
  t.metrics().gauge("depth").set(3);
  t.metrics().histogram("lat", 0, 100, 10).observe(42, 2);
  // Overflow the ring so drops round-trip.
  for (int i = 0; i < static_cast<int>(kSpanCapacity) + 4; ++i) {
    t.span("s", static_cast<util::SimNs>(i), static_cast<util::SimNs>(i + 1),
           kTidMover);
  }
  t.begin_run("beta");
  t.span("late", 100, 200, kTidDaemon);

  util::ckpt::Writer w;
  w.begin_section("telemetry");
  t.save_state(w);
  w.end_section();
  util::ckpt::Reader r(w.finish());
  r.enter_section("telemetry");
  Telemetry restored(cfg);
  restored.load_state(r);
  r.end_section();
  EXPECT_EQ(exports_of(restored), exports_of(t));
  EXPECT_EQ(restored.current_pid(), t.current_pid());
  EXPECT_EQ(restored.tracer().overwritten(), t.tracer().overwritten());
}

}  // namespace
}  // namespace tmprof::telemetry
