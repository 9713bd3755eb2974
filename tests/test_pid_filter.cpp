#include "core/pid_filter.hpp"

#include <gtest/gtest.h>

#include "workloads/synthetic.hpp"

namespace tmprof::core {
namespace {

std::unique_ptr<sim::Process> make_proc(mem::Pid pid) {
  return std::make_unique<sim::Process>(
      pid, std::make_unique<workloads::UniformWorkload>(1 << 20, 0.0, pid));
}

TEST(PidFilter, KeepsHighCpuProcesses) {
  auto a = make_proc(1);
  auto b = make_proc(2);
  a->charge_ops(960);  // 96% of CPU
  b->charge_ops(40);   // 4% of CPU, no memory
  PidFilter filter;
  const auto kept = filter.select({a.get(), b.get()});
  ASSERT_EQ(kept.size(), 1U);
  EXPECT_EQ(kept[0], 1U);
}

TEST(PidFilter, KeepsHighMemoryProcessesEvenIfIdle) {
  auto a = make_proc(1);
  auto b = make_proc(2);
  a->charge_ops(1000);
  for (int i = 0; i < 100; ++i) b->note_mapped_page(mem::PageSize::k4K);
  for (int i = 0; i < 10; ++i) a->note_mapped_page(mem::PageSize::k4K);
  // b: 0% CPU but ~91% of memory -> kept.
  PidFilter filter;
  const auto kept = filter.select({a.get(), b.get()});
  EXPECT_EQ(kept.size(), 2U);
}

TEST(PidFilter, CpuShareUsesDeltasBetweenCalls) {
  auto a = make_proc(1);
  auto b = make_proc(2);
  a->charge_ops(1000);
  PidFilter filter;
  auto kept = filter.select({a.get(), b.get()});
  ASSERT_EQ(kept.size(), 1U);
  // Since then only b ran: the next evaluation must flip.
  b->charge_ops(1000);
  kept = filter.select({a.get(), b.get()});
  ASSERT_EQ(kept.size(), 1U);
  EXPECT_EQ(kept[0], 2U);
}

TEST(PidFilter, AllIdleKeepsNothing) {
  auto a = make_proc(1);
  auto b = make_proc(2);
  PidFilter filter;
  EXPECT_TRUE(filter.select({a.get(), b.get()}).empty());
}

TEST(PidFilter, ResultSorted) {
  auto a = make_proc(9);
  auto b = make_proc(3);
  a->charge_ops(500);
  b->charge_ops(500);
  PidFilter filter;
  const auto kept = filter.select({a.get(), b.get()});
  ASSERT_EQ(kept.size(), 2U);
  EXPECT_LT(kept[0], kept[1]);
}

}  // namespace
}  // namespace tmprof::core
