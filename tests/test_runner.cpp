#include "tiering/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>

#include "core/ranking.hpp"
#include "util/ckpt.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::tiering {
namespace {

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 12;   // 16 MiB fast
  cfg.tier2_frames = 1 << 16;   // 256 MiB slow
  return cfg;
}

RunnerOptions fast_options(const std::string& policy) {
  RunnerOptions opt;
  opt.policy = policy;
  opt.n_epochs = 4;
  opt.ops_per_epoch = 60000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(512);
  return opt;
}

/// Factory for a dataset-load-then-serve process: first-touch fills tier 1
/// with cold initialization pages, which a profile-driven policy reclaims.
WorkloadFactory init_then_serve() {
  return [](std::uint64_t seed) {
    std::vector<workloads::WorkloadPtr> procs;
    procs.push_back(std::make_unique<workloads::InitThenServeWorkload>(
        16 << 20, 8 << 20, 0.9, seed));
    return procs;
  };
}

TEST(Runner, HistoryBeatsFirstTouchOnSkewedWorkload) {
  // Tier 1 must be smaller than the touched footprint or placement is moot.
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 1 << 10;
  RunnerOptions opt = fast_options("first-touch");
  opt.n_epochs = 6;
  opt.ops_per_epoch = 120000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
  const RunnerResult baseline =
      EndToEndRunner::run(init_then_serve(), cfg, opt);
  opt.policy = "history";
  const RunnerResult tmp = EndToEndRunner::run(init_then_serve(), cfg, opt);
  EXPECT_GT(tmp.tier1_hitrate, baseline.tier1_hitrate);
  EXPECT_GT(tmp.migrations, 0U);
  EXPECT_EQ(baseline.migrations, 0U);
}

TEST(Runner, RuntimeAndOverheadArePopulated) {
  const auto spec = workloads::find_spec("web_serving", 0.2);
  const RunnerResult r =
      EndToEndRunner::run(spec, small_config(), fast_options("history"));
  EXPECT_GT(r.runtime_ns, 0U);
  EXPECT_GT(r.profiling_overhead_ns, 0U);
  EXPECT_GE(r.tier1_hitrate, 0.0);
  EXPECT_LE(r.tier1_hitrate, 1.0);
}

TEST(Runner, OraclePrePassWorks) {
  const auto spec = workloads::find_spec("data_caching", 0.1);
  const RunnerResult oracle =
      EndToEndRunner::run(spec, small_config(), fast_options("oracle"));
  const RunnerResult baseline =
      EndToEndRunner::run(spec, small_config(), fast_options("first-touch"));
  EXPECT_GE(oracle.tier1_hitrate, baseline.tier1_hitrate);
}

/// Two Zipf services of different sizes, so the scheduler's share of each
/// shows up in the per-page truth.
WorkloadFactory two_services() {
  return [](std::uint64_t seed) {
    std::vector<workloads::WorkloadPtr> procs;
    procs.push_back(std::make_unique<workloads::ZipfWorkload>(
        4 << 20, 4096, 0.9, 0.05, seed));
    procs.push_back(std::make_unique<workloads::ZipfWorkload>(
        2 << 20, 4096, 0.9, 0.05, seed + 1));
    return procs;
  };
}

/// The oracle rankings an oracle run's last checkpoint carries.
std::vector<std::vector<core::PageRank>> checkpointed_oracle(
    RunnerOptions opt, const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("tmprof-oracle-" + tag);
  std::filesystem::remove_all(dir);
  opt.checkpoint.every = opt.n_epochs;
  opt.checkpoint.dir = dir.string();
  (void)EndToEndRunner::run(two_services(), small_config(), opt);
  util::ckpt::Reader r = util::ckpt::Reader::from_file(
      util::ckpt::checkpoint_path(dir.string(), "ckpt", opt.n_epochs));
  r.enter_section("oracle");
  EXPECT_TRUE(r.get_bool());
  std::vector<std::vector<core::PageRank>> rankings(r.get_u64());
  for (std::vector<core::PageRank>& ranking : rankings) {
    core::load_ranking(r, ranking);
  }
  r.end_section();
  return rankings;
}

TEST(Runner, OraclePrePassUsesProcessWeights) {
  // The oracle places by the truth of a shadow run; that run must schedule
  // the processes exactly as the measured run does.
  RunnerOptions opt = fast_options("oracle");
  opt.n_epochs = 3;
  opt.ops_per_epoch = 20000;
  opt.process_weights = {4.0, 1.0};
  const auto weighted = checkpointed_oracle(opt, "weighted");
  opt.process_weights = {1.0, 1.0};
  const auto uniform = checkpointed_oracle(opt, "uniform");

  // Reference: the truth of a System built with the weights and wired the
  // way collect_series wires it.
  sim::System system(small_config());
  const std::vector<double> weights{4.0, 1.0};
  std::size_t i = 0;
  for (workloads::WorkloadPtr& generator : two_services()(opt.seed)) {
    system.add_process(std::move(generator), weights[i++]);
  }
  TruthCollector truth(system);
  system.add_observer(&truth);
  core::DaemonConfig daemon_config = opt.daemon;
  daemon_config.fault = opt.fault;
  core::TmpDaemon daemon(system, daemon_config);
  core::ProfileSnapshot snapshot;
  std::vector<std::vector<core::PageRank>> expected;
  for (std::uint32_t e = 0; e < opt.n_epochs; ++e) {
    system.step(opt.ops_per_epoch);
    daemon.tick_into(snapshot);
    core::TruthMap counts;
    std::vector<PageKey> new_pages;
    (void)truth.end_epoch(counts, new_pages);
    std::vector<core::PageRank> ranking;
    for (const auto& [key, count] : counts) {
      core::PageRank pr;
      pr.key = key;
      pr.rank = count;
      ranking.push_back(pr);
    }
    std::sort(ranking.begin(), ranking.end(), core::RankOrder{});
    expected.push_back(std::move(ranking));
  }

  const auto same = [](const std::vector<std::vector<core::PageRank>>& a,
                       const std::vector<std::vector<core::PageRank>>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t e = 0; e < a.size(); ++e) {
      if (a[e].size() != b[e].size()) return false;
      for (std::size_t j = 0; j < a[e].size(); ++j) {
        if (a[e][j].key != b[e][j].key || a[e][j].rank != b[e][j].rank) {
          return false;
        }
      }
    }
    return true;
  };
  ASSERT_EQ(weighted.size(), opt.n_epochs);
  EXPECT_FALSE(same(weighted, uniform));
  EXPECT_TRUE(same(weighted, expected));
}

TEST(Runner, BadgerTrapEmulationInjectsFaults) {
  const auto spec = workloads::find_spec("data_caching", 0.1);
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 1 << 9;  // force spill so slow pages exist
  RunnerOptions opt = fast_options("history");
  opt.slow_model = SlowMemoryModel::BadgerTrapEmulation;
  const RunnerResult r = EndToEndRunner::run(spec, cfg, opt);
  EXPECT_GT(r.protection_faults, 0U);
}

TEST(Runner, BadgerTrapEmulationPreservesOrdering) {
  // Under the paper's emulation model the TMP-driven run should still beat
  // first-touch on a skewed workload.
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 1 << 10;
  RunnerOptions hist = fast_options("history");
  hist.n_epochs = 6;
  hist.ops_per_epoch = 120000;
  hist.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
  RunnerOptions ft = hist;
  ft.policy = "first-touch";
  hist.slow_model = SlowMemoryModel::BadgerTrapEmulation;
  ft.slow_model = SlowMemoryModel::BadgerTrapEmulation;
  const RunnerResult h = EndToEndRunner::run(init_then_serve(), cfg, hist);
  const RunnerResult f = EndToEndRunner::run(init_then_serve(), cfg, ft);
  EXPECT_GT(h.tier1_hitrate, f.tier1_hitrate);
}

void expect_same_result(const RunnerResult& a, const RunnerResult& b) {
  EXPECT_EQ(a.runtime_ns, b.runtime_ns);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.tier1_hitrate),
            std::bit_cast<std::uint64_t>(b.tier1_hitrate));
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.protection_faults, b.protection_faults);
  EXPECT_EQ(a.profiling_overhead_ns, b.profiling_overhead_ns);
  EXPECT_EQ(a.moves.moved_bytes, b.moves.moved_bytes);
  EXPECT_EQ(a.moves.no_room, b.moves.no_room);
  EXPECT_EQ(a.process_hitrates, b.process_hitrates);
}

/// The policy's capacity and the oracle's waterfall come from the chain's
/// first tier, so an explicit chain that leaves the tier1_frames shorthand
/// at its default runs exactly like the shorthand with the same frames.
TEST(Runner, ExplicitChainSizesFastTierFromChain) {
  const auto spec = workloads::find_spec("data_caching", 0.1);
  sim::SimConfig shorthand = small_config();
  shorthand.tier1_frames = 1 << 9;  // far below the shorthand default
  sim::SimConfig chain = small_config();
  chain.tier1_frames = sim::SimConfig{}.tier1_frames;
  chain.tiers = {mem::TierSpec{"tier1-dram", 1 << 9, 80, 80, 0},
                 mem::TierSpec{"tier2-nvm", 1 << 16, 300, 600, 0}};
  for (const char* policy : {"history", "oracle"}) {
    SCOPED_TRACE(policy);
    const RunnerOptions opt = fast_options(policy);
    const RunnerResult two = EndToEndRunner::run(spec, shorthand, opt);
    EXPECT_GT(two.migrations, 0U);
    expect_same_result(two, EndToEndRunner::run(spec, chain, opt));
  }
}

/// Emulation runs every tier at DRAM speed, so an explicit chain is
/// flattened the same way as the two-tier shorthand, down to its last tier.
TEST(Runner, BadgerTrapEmulationFlattensExplicitChain) {
  const auto spec = workloads::find_spec("data_caching", 0.1);
  RunnerOptions opt = fast_options("history");
  opt.slow_model = SlowMemoryModel::BadgerTrapEmulation;

  sim::SimConfig shorthand = small_config();
  shorthand.tier1_frames = 1 << 9;  // force spill so slow pages exist
  sim::SimConfig chain = shorthand;
  chain.tiers = {mem::TierSpec{"tier1-dram", 1 << 9, 80, 80, 0},
                 mem::TierSpec{"tier2-nvm", 1 << 16, 300, 600, 0}};
  const RunnerResult two = EndToEndRunner::run(spec, shorthand, opt);
  EXPECT_GT(two.protection_faults, 0U);
  expect_same_result(two, EndToEndRunner::run(spec, chain, opt));

  // Three tiers with a small middle one, so pages spill to the bottom.
  chain.tiers = {mem::TierSpec{"dram", 1 << 9, 80, 80, 0},
                 mem::TierSpec{"cxl", 1 << 9, 300, 600, 0},
                 mem::TierSpec{"nvm", 1 << 16, 300, 600, 0}};
  const RunnerResult near = EndToEndRunner::run(spec, chain, opt);
  chain.tiers[1].read_latency_ns = chain.tiers[2].read_latency_ns = 900;
  chain.tiers[1].write_latency_ns = chain.tiers[2].write_latency_ns = 1800;
  const RunnerResult far = EndToEndRunner::run(spec, chain, opt);
  EXPECT_GT(near.protection_faults, 0U);
  EXPECT_EQ(near.runtime_ns, far.runtime_ns);
}

TEST(Runner, DeterministicUnderSeed) {
  const auto spec = workloads::find_spec("gups", 0.05);
  const RunnerResult a =
      EndToEndRunner::run(spec, small_config(), fast_options("history"));
  const RunnerResult b =
      EndToEndRunner::run(spec, small_config(), fast_options("history"));
  EXPECT_EQ(a.runtime_ns, b.runtime_ns);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_DOUBLE_EQ(a.tier1_hitrate, b.tier1_hitrate);
}

}  // namespace
}  // namespace tmprof::tiering

namespace tmprof::tiering {
namespace {

TEST(Runner, CustomPoliciesRunOnline) {
  // freq-decay and history-density flow through the Policy interface in
  // the online runner; both must run and produce sane results.
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 1 << 10;
  for (const char* name : {"freq-decay", "history-density"}) {
    RunnerOptions opt = fast_options(name);
    opt.n_epochs = 6;  // long enough to leave the init phase and serve
    opt.ops_per_epoch = 120000;
    opt.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
    const RunnerResult r =
        EndToEndRunner::run(init_then_serve(), cfg, opt);
    EXPECT_GT(r.runtime_ns, 0U) << name;
    EXPECT_GE(r.tier1_hitrate, 0.0) << name;
    EXPECT_LE(r.tier1_hitrate, 1.0) << name;
    EXPECT_GT(r.migrations, 0U) << name;
  }
}

TEST(Runner, FreqDecayTracksLikeHistory) {
  sim::SimConfig cfg = small_config();
  cfg.tier1_frames = 1 << 10;
  RunnerOptions opt = fast_options("first-touch");
  opt.n_epochs = 6;
  opt.ops_per_epoch = 120000;
  opt.daemon.driver.ibs = monitors::IbsConfig::with_period(128);
  const RunnerResult baseline =
      EndToEndRunner::run(init_then_serve(), cfg, opt);
  opt.policy = "freq-decay";
  const RunnerResult decay = EndToEndRunner::run(init_then_serve(), cfg, opt);
  EXPECT_GT(decay.tier1_hitrate, baseline.tier1_hitrate);
}

}  // namespace
}  // namespace tmprof::tiering
