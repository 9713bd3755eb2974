#include "core/page_stats.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace tmprof::core {
namespace {

TEST(PageStats, CountsPerMethod) {
  PageStatsStore store(100);
  store.record_abit(1, 0);
  store.record_abit(1, 1);
  store.record_trace(2, 0);
  EXPECT_EQ(store.desc(1).abit_total, 2U);
  EXPECT_EQ(store.desc(2).trace_total, 1U);
  EXPECT_EQ(store.frames_with_abit(), 1U);
  EXPECT_EQ(store.frames_with_trace(), 1U);
  EXPECT_EQ(store.frames_with_both(), 0U);
}

TEST(PageStats, BothRequiresSameEpoch) {
  PageStatsStore store(100);
  // Different epochs: no co-detection.
  store.record_abit(5, 0);
  store.record_trace(5, 1);
  EXPECT_EQ(store.frames_with_both(), 0U);
  // Same epoch: co-detection, whichever order.
  store.record_abit(6, 3);
  store.record_trace(6, 3);
  store.record_trace(7, 4);
  store.record_abit(7, 4);
  EXPECT_EQ(store.frames_with_both(), 2U);
  EXPECT_EQ(store.desc(6).both_epochs, 1U);
}

TEST(PageStats, BothCountedOncePerFrame) {
  PageStatsStore store(10);
  store.record_abit(3, 0);
  store.record_trace(3, 0);
  store.record_abit(3, 1);
  store.record_trace(3, 1);
  EXPECT_EQ(store.frames_with_both(), 1U);
  EXPECT_EQ(store.desc(3).both_epochs, 2U);
}

TEST(PageStats, RepeatSamplesSameEpochDontDoubleCountBoth) {
  PageStatsStore store(10);
  store.record_trace(3, 0);
  store.record_trace(3, 0);
  store.record_abit(3, 0);
  store.record_abit(3, 0);
  EXPECT_EQ(store.desc(3).both_epochs, 1U);
  EXPECT_EQ(store.desc(3).trace_total, 2U);
  EXPECT_EQ(store.desc(3).abit_total, 2U);
}

TEST(PageStats, ResetClearsEverything) {
  PageStatsStore store(10);
  store.record_abit(1, 0);
  store.record_trace(1, 0);
  store.reset();
  EXPECT_EQ(store.frames_with_abit(), 0U);
  EXPECT_EQ(store.frames_with_trace(), 0U);
  EXPECT_EQ(store.frames_with_both(), 0U);
  EXPECT_EQ(store.desc(1).abit_total, 0U);
}

TEST(PageStats, BoundsChecked) {
  PageStatsStore store(4);
  EXPECT_THROW(store.record_abit(4, 0), util::AssertionError);
  EXPECT_THROW((void)store.desc(4), util::AssertionError);
}

}  // namespace
}  // namespace tmprof::core
