#include "core/daemon.hpp"

#include <gtest/gtest.h>

#include "workloads/synthetic.hpp"

namespace tmprof::core {
namespace {

sim::SimConfig small_config() {
  sim::SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 8192;
  cfg.tier2_frames = 8192;
  return cfg;
}

DaemonConfig fast_daemon() {
  DaemonConfig cfg;
  cfg.driver.ibs = monitors::IbsConfig::with_period(256);
  return cfg;
}

TEST(Daemon, TickProducesRankedSnapshot) {
  sim::System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::ZipfWorkload>(8 << 20, 4096, 0.99, 0.1, 1));
  TmpDaemon daemon(sys, fast_daemon());
  sys.step(100000);
  const ProfileSnapshot snap = daemon.tick();
  ASSERT_FALSE(snap.ranking.empty());
  for (std::size_t i = 1; i < snap.ranking.size(); ++i) {
    EXPECT_GE(snap.ranking[i - 1].rank, snap.ranking[i].rank);
  }
  EXPECT_TRUE(snap.abit_ran);
  EXPECT_TRUE(snap.trace_ran);
}

TEST(Daemon, GatingDisablesProfilingWhenIdle) {
  // Footprint must exceed TLB reach so TLB-walk activity persists across
  // busy periods (a TLB-resident working set would legitimately gate the
  // A-bit scanner off — that is the optimization working as intended).
  sim::SimConfig scfg = small_config();
  scfg.tier1_frames = 1 << 15;
  scfg.tier2_frames = 1 << 15;
  sim::System sys(scfg);
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(96 << 20, 0.0, 1));
  (void)pid;
  DaemonConfig cfg = fast_daemon();
  cfg.gating_enabled = true;
  TmpDaemon daemon(sys, cfg);
  sys.step(200000);
  daemon.tick();  // busy period: establishes the max
  // Idle period: counters barely move.
  sys.advance_time(100 * util::kMillisecond);
  const ProfileSnapshot idle = daemon.tick();
  EXPECT_FALSE(idle.abit_ran);
  EXPECT_FALSE(idle.trace_ran);
  // Activity resumes: profiling switches back on.
  sys.step(200000);
  const ProfileSnapshot busy = daemon.tick();
  EXPECT_TRUE(busy.abit_ran);
  EXPECT_TRUE(busy.trace_ran);
}

TEST(Daemon, GatingOffKeepsProfilingAlive) {
  sim::System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(8 << 20, 0.0, 1));
  DaemonConfig cfg = fast_daemon();
  cfg.gating_enabled = false;
  TmpDaemon daemon(sys, cfg);
  sys.step(100000);
  daemon.tick();
  const ProfileSnapshot idle = daemon.tick();  // nothing ran since
  EXPECT_TRUE(idle.abit_ran);
  EXPECT_TRUE(idle.trace_ran);
}

TEST(Daemon, PidFilterSkipsBackgroundProcess) {
  sim::System sys(small_config());
  const mem::Pid busy = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(8 << 20, 0.0, 1), 50.0);
  const mem::Pid background = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 2), 1.0);
  TmpDaemon daemon(sys, fast_daemon());
  sys.step(200000);
  daemon.tick();
  const auto& tracked = daemon.tracked_pids();
  EXPECT_NE(std::find(tracked.begin(), tracked.end(), busy), tracked.end());
  EXPECT_EQ(std::find(tracked.begin(), tracked.end(), background),
            tracked.end());
}

TEST(Daemon, FilterDisabledTracksEveryone) {
  sim::System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(8 << 20, 0.0, 1), 50.0);
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 2), 1.0);
  DaemonConfig cfg = fast_daemon();
  cfg.pid_filter_enabled = false;
  TmpDaemon daemon(sys, cfg);
  sys.step(50000);
  daemon.tick();
  EXPECT_EQ(daemon.tracked_pids().size(), 2U);
}

TEST(Daemon, ChargeOverheadAdvancesClock) {
  sim::System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(8 << 20, 0.0, 1));
  DaemonConfig cfg = fast_daemon();
  cfg.charge_overhead = true;
  TmpDaemon daemon(sys, cfg);
  sys.step(50000);
  const util::SimNs before = sys.now();
  daemon.tick();
  EXPECT_GT(sys.now(), before);  // scan cost charged
}

TEST(Daemon, DumpIsHumanReadable) {
  sim::System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::ZipfWorkload>(8 << 20, 4096, 0.99, 0.0, 1));
  TmpDaemon daemon(sys, fast_daemon());
  sys.step(100000);
  const ProfileSnapshot snap = daemon.tick();
  const std::string text = TmpDaemon::dump(snap, 5);
  EXPECT_NE(text.find("epoch=0"), std::string::npos);
  EXPECT_NE(text.find("rank="), std::string::npos);
  EXPECT_NE(text.find("0x"), std::string::npos);
}

TEST(Daemon, FusionModeFlowsIntoRanking) {
  sim::System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(8 << 20, 0.0, 1));
  (void)pid;
  DaemonConfig cfg = fast_daemon();
  cfg.fusion = FusionMode::AbitOnly;
  TmpDaemon daemon(sys, cfg);
  sys.step(100000);
  const ProfileSnapshot snap = daemon.tick();
  for (const PageRank& pr : snap.ranking) {
    EXPECT_EQ(pr.rank, pr.abit);  // trace contributed nothing
  }
}

}  // namespace
}  // namespace tmprof::core

namespace tmprof::core {
namespace {

TEST(Daemon, PidFilterReevaluatesEveryTick) {
  sim::System sys(small_config());
  const mem::Pid a = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(8 << 20, 0.0, 1), 50.0);
  const mem::Pid b = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 2), 1.0);
  DaemonConfig cfg = fast_daemon();
  cfg.gating_enabled = false;
  TmpDaemon daemon(sys, cfg);
  sys.step(100000);
  daemon.tick();
  ASSERT_EQ(daemon.tracked_pids(), std::vector<mem::Pid>{a});
  // Shift the CPU to b: the very next tick re-evaluates the filter and
  // tracks it (a stays for its memory share).
  sys.process(b).charge_ops(10'000'000);
  sys.step(1000);
  daemon.tick();
  EXPECT_EQ(daemon.tracked_pids(), (std::vector<mem::Pid>{a, b}));
}

}  // namespace
}  // namespace tmprof::core
