#include "sim/trace_io.hpp"

#include <gtest/gtest.h>

#include <string>

#include "monitors/ibs.hpp"
#include "sim/system.hpp"
#include "workloads/synthetic.hpp"

namespace tmprof::sim {
namespace {

SimConfig small_config() {
  SimConfig cfg;
  cfg.cores = 2;
  cfg.llc_bytes = 1 << 18;
  cfg.tier1_frames = 1 << 14;
  cfg.tier2_frames = 1 << 14;
  return cfg;
}

/// A trace file private to the running test: ctest runs each test in its
/// own process, concurrently, so a shared path would race.
std::string trace_path() {
  return ::testing::TempDir() + "tmprof_trace_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".bin";
}

TEST(TraceIo, RecordsEveryMemOp) {
  const std::string path = trace_path();
  System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(2 << 20, 0.3, 1));
  {
    TraceWriter writer(path);
    sys.add_observer(&writer);
    sys.step(5000);
    sys.remove_observer(&writer);
    EXPECT_EQ(writer.records_written(), 5000U);
  }  // destructor flushes

  struct Counter final : monitors::AccessObserver {
    std::uint64_t ops = 0;
    std::uint64_t stores = 0;
    void on_mem_op(const monitors::MemOpEvent& ev) override {
      ++ops;
      stores += ev.is_store ? 1 : 0;
    }
  } counter;
  TraceReplayer replayer(path);
  replayer.add_observer(&counter);
  EXPECT_EQ(replayer.replay(), 5000U);
  EXPECT_EQ(counter.ops, 5000U);
  EXPECT_GT(counter.stores, 0U);
  EXPECT_LT(counter.stores, counter.ops);
}

TEST(TraceIo, ReplayPreservesFields) {
  const std::string path = trace_path();
  System sys(small_config());
  const mem::Pid pid = sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 16, 0.0, 1));
  Process& proc = sys.process(pid);
  {
    TraceWriter writer(path);
    sys.add_observer(&writer);
    sys.access(proc, proc.vaddr_of(0x123), true, 7);
    sys.remove_observer(&writer);
  }
  monitors::MemOpEvent got;
  struct Grabber final : monitors::AccessObserver {
    monitors::MemOpEvent* out;
    void on_mem_op(const monitors::MemOpEvent& ev) override { *out = ev; }
  } grabber;
  grabber.out = &got;
  TraceReplayer replayer(path);
  replayer.add_observer(&grabber);
  replayer.replay();
  EXPECT_EQ(got.pid, pid);
  EXPECT_EQ(got.vaddr, proc.vaddr_of(0x123));
  EXPECT_EQ(got.ip, 7U);
  EXPECT_TRUE(got.is_store);
  EXPECT_TRUE(mem::is_memory(got.source));  // cold access reached memory
}

TEST(TraceIo, IbsOverReplayMatchesLiveStatistically) {
  const std::string path = trace_path();
  System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(4 << 20, 0.0, 1));
  monitors::IbsConfig ibs_cfg = monitors::IbsConfig::with_period(256);
  monitors::IbsMonitor live(ibs_cfg, sys.config().cores, 1);
  {
    TraceWriter writer(path);
    sys.add_observer(&writer);
    sys.add_observer(&live);
    sys.step(50000);
    sys.remove_observer(&writer);
    sys.remove_observer(&live);
  }
  monitors::IbsMonitor replayed(ibs_cfg, sys.config().cores, 1);
  TraceReplayer replayer(path);
  replayer.add_observer(&replayed);
  replayer.replay();
  // Same seed, same retire stream => identical sample counts.
  EXPECT_EQ(replayed.samples_taken(), live.samples_taken());
}

TEST(TraceIo, PartialReplayStopsEarly) {
  const std::string path = trace_path();
  System sys(small_config());
  sys.add_process(
      std::make_unique<workloads::UniformWorkload>(1 << 18, 0.0, 1));
  {
    TraceWriter writer(path);
    sys.add_observer(&writer);
    sys.step(1000);
    sys.remove_observer(&writer);
  }
  TraceReplayer replayer(path);
  EXPECT_EQ(replayer.replay(250), 250U);
}

TEST(TraceIo, RejectsBadFiles) {
  EXPECT_THROW(TraceReplayer("/nonexistent/trace.bin"), std::runtime_error);
  EXPECT_THROW(TraceWriter("/nonexistent/dir/trace.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace tmprof::sim
