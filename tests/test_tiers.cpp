#include "mem/tiers.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace tmprof::mem {
namespace {

PhysMemory make_two_tier(std::uint64_t t1_frames = 1024,
                         std::uint64_t t2_frames = 4096) {
  return PhysMemory({TierSpec{"fast", t1_frames, 80, 80},
                     TierSpec{"slow", t2_frames, 300, 600}});
}

TEST(PhysMemory, TierBoundaries) {
  PhysMemory pm = make_two_tier(1024, 4096);
  EXPECT_EQ(pm.total_frames(), 5120U);
  EXPECT_EQ(pm.tier_of(0), 0);
  EXPECT_EQ(pm.tier_of(1023), 0);
  EXPECT_EQ(pm.tier_of(1024), 1);
  EXPECT_EQ(pm.tier_of(5119), 1);
}

TEST(PhysMemory, Alloc4kFillsPreferredTierFirst) {
  PhysMemory pm = make_two_tier(4, 4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto pfn = pm.alloc(1, 0x1000 * i, PageSize::k4K);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_EQ(pm.tier_of(*pfn), 0);
  }
  // Tier 1 full: falls back to tier 2.
  const auto spill = pm.alloc(1, 0x9000, PageSize::k4K);
  ASSERT_TRUE(spill.has_value());
  EXPECT_EQ(pm.tier_of(*spill), 1);
}

TEST(PhysMemory, AllocExactDoesNotFallBack) {
  PhysMemory pm = make_two_tier(1, 4);
  ASSERT_TRUE(pm.alloc_exact(0, 1, 0x0, PageSize::k4K).has_value());
  EXPECT_FALSE(pm.alloc_exact(0, 1, 0x1000, PageSize::k4K).has_value());
}

TEST(PhysMemory, HugeAllocIsAlignedAndSpans512) {
  PhysMemory pm = make_two_tier(2048, 2048);
  const auto head = pm.alloc(7, 0x200000, PageSize::k2M);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(*head % kPagesPerHuge, 0U);
  for (std::uint64_t i = 0; i < kPagesPerHuge; ++i) {
    const FrameInfo& f = pm.frame(*head + i);
    EXPECT_TRUE(f.allocated);
    EXPECT_EQ(f.pid, 7U);
    EXPECT_EQ(f.head, i == 0);
    EXPECT_EQ(f.size, PageSize::k2M);
  }
  EXPECT_EQ(pm.used_frames(0), kPagesPerHuge);
}

TEST(PhysMemory, FreeRecyclesFrames) {
  PhysMemory pm = make_two_tier(4, 4);
  const auto a = pm.alloc(1, 0x0, PageSize::k4K);
  pm.free(*a);
  EXPECT_EQ(pm.used_frames(0), 0U);
  const auto b = pm.alloc(1, 0x1000, PageSize::k4K);
  EXPECT_EQ(*a, *b);  // recycled
}

TEST(PhysMemory, FreeHugeRecycles) {
  PhysMemory pm = make_two_tier(1024, 1024);
  const auto a = pm.alloc(1, 0x0, PageSize::k2M);
  ASSERT_TRUE(a);
  pm.free(*a);
  EXPECT_EQ(pm.used_frames(0), 0U);
  const auto b = pm.alloc(1, 0x200000, PageSize::k2M);
  EXPECT_EQ(*a, *b);
}

TEST(PhysMemory, MixedSizesShareATier) {
  PhysMemory pm = make_two_tier(1024, 1024);
  // One huge page (512 frames from the top) + 4K pages from the bottom.
  const auto huge = pm.alloc(1, 0x200000, PageSize::k2M);
  ASSERT_TRUE(huge);
  std::uint64_t small_count = 0;
  while (pm.alloc_exact(0, 1, small_count * kPageSize, PageSize::k4K)) {
    ++small_count;
  }
  EXPECT_EQ(small_count, 1024 - kPagesPerHuge);
  EXPECT_EQ(pm.free_frames(0), 0U);
}

TEST(PhysMemory, ExhaustionReturnsNullopt) {
  PhysMemory pm = make_two_tier(2, 2);
  EXPECT_TRUE(pm.alloc(1, 0x0, PageSize::k4K));
  EXPECT_TRUE(pm.alloc(1, 0x1000, PageSize::k4K));
  EXPECT_TRUE(pm.alloc(1, 0x2000, PageSize::k4K));
  EXPECT_TRUE(pm.alloc(1, 0x3000, PageSize::k4K));
  EXPECT_FALSE(pm.alloc(1, 0x4000, PageSize::k4K));
}

TEST(PhysMemory, HugeAllocFailsInTinyTier) {
  PhysMemory pm = make_two_tier(100, 2048);
  // Tier 0 has fewer than 512 frames worth of space for a huge page.
  EXPECT_FALSE(pm.alloc_exact(0, 1, 0x0, PageSize::k2M).has_value());
  EXPECT_TRUE(pm.alloc_exact(1, 1, 0x0, PageSize::k2M).has_value());
}

TEST(PhysMemory, FrameOwnershipLookup) {
  PhysMemory pm = make_two_tier();
  const auto pfn = pm.alloc(42, 0xabc000, PageSize::k4K);
  const FrameInfo& info = pm.frame(*pfn);
  EXPECT_EQ(info.pid, 42U);
  EXPECT_EQ(info.page_va, 0xabc000U);
  EXPECT_TRUE(info.head);
}

TEST(PhysMemory, DoubleFreeRejected) {
  PhysMemory pm = make_two_tier();
  const auto pfn = pm.alloc(1, 0x0, PageSize::k4K);
  pm.free(*pfn);
  EXPECT_THROW(pm.free(*pfn), util::AssertionError);
}

}  // namespace
}  // namespace tmprof::mem
