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
}

TEST(PageStats, BothCountedOncePerFrame) {
  PageStatsStore store(10);
  store.record_abit(3, 0);
  store.record_trace(3, 0);
  store.record_abit(3, 1);
  store.record_trace(3, 1);
  EXPECT_EQ(store.frames_with_both(), 1U);
}

TEST(PageStats, RepeatSamplesSameEpochDontDoubleCountBoth) {
  PageStatsStore store(10);
  store.record_trace(3, 0);
  store.record_trace(3, 0);
  store.record_abit(3, 0);
  store.record_abit(3, 0);
  EXPECT_EQ(store.frames_with_both(), 1U);
  EXPECT_EQ(store.frames_with_trace(), 1U);
  EXPECT_EQ(store.frames_with_abit(), 1U);
}

TEST(PageStats, BoundsChecked) {
  PageStatsStore store(4);
  EXPECT_THROW(store.record_abit(4, 0), util::AssertionError);
  EXPECT_THROW(store.record_trace(4, 0), util::AssertionError);
}

}  // namespace
}  // namespace tmprof::core
