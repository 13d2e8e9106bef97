#include "hw/llc_model.h"

#include <gtest/gtest.h>

#include "sim/rng.h"

#include <set>
#include <vector>

namespace hostsim {
namespace {

TEST(LlcModelTest, DmaWriteThenReadHits) {
  LlcModel llc;
  llc.dma_write(1);
  EXPECT_TRUE(llc.contains(1));
  EXPECT_TRUE(llc.touch_read(1));
  EXPECT_EQ(llc.read_stats().misses(), 0u);
}

TEST(LlcModelTest, ReadMissDoesNotFill) {
  // Non-inclusive LLC: a demand read must not install the page.
  LlcModel llc;
  EXPECT_FALSE(llc.touch_read(42));
  EXPECT_FALSE(llc.contains(42));
  EXPECT_FALSE(llc.touch_read(42));
  EXPECT_EQ(llc.read_stats().misses(), 2u);
}

TEST(LlcModelTest, DmaInvalidateRemovesPage) {
  LlcModel llc;
  llc.dma_write(7);
  llc.dma_invalidate(7);
  EXPECT_FALSE(llc.contains(7));
}

TEST(LlcModelTest, InsertThenReadHits) {
  LlcModel llc;
  llc.insert(9);
  EXPECT_TRUE(llc.touch_read(9));
}

TEST(LlcModelTest, DmaAllocationsRestrictedToDdioWays) {
  // Fill one set with DMA writes far beyond ddio_ways: only ddio_ways
  // survive, because DMA may not allocate outside its partition.
  LlcConfig config{/*sets=*/1, /*ways=*/8, /*ddio_ways=*/2};
  LlcModel llc(config);
  for (PageId p = 1; p <= 100; ++p) llc.dma_write(p);
  EXPECT_EQ(llc.occupancy(), 2);
}

TEST(LlcModelTest, DdioEvictsLruAmongDdioWays) {
  LlcConfig config{/*sets=*/1, /*ways=*/8, /*ddio_ways=*/2};
  LlcModel llc(config);
  llc.dma_write(1);
  llc.dma_write(2);
  llc.dma_write(1);  // refresh 1: page 2 is now LRU
  llc.dma_write(3);  // evicts 2
  EXPECT_TRUE(llc.contains(1));
  EXPECT_FALSE(llc.contains(2));
  EXPECT_TRUE(llc.contains(3));
}

TEST(LlcModelTest, DmaWriteHitUpdatesInPlaceWithoutEviction) {
  LlcConfig config{/*sets=*/1, /*ways=*/8, /*ddio_ways=*/2};
  LlcModel llc(config);
  llc.dma_write(1);
  llc.dma_write(2);
  llc.dma_write(1);  // write hit: no allocation, nothing evicted
  EXPECT_TRUE(llc.contains(2));
  EXPECT_EQ(llc.dma_stats().hits(), 1u);
  EXPECT_EQ(llc.dma_stats().misses(), 2u);
}

TEST(LlcModelTest, DemandInsertMayUseAllWays) {
  LlcConfig config{/*sets=*/1, /*ways=*/4, /*ddio_ways=*/1};
  LlcModel llc(config);
  for (PageId p = 1; p <= 4; ++p) llc.insert(p);
  EXPECT_EQ(llc.occupancy(), 4);
}

TEST(LlcModelTest, WastedDdioFillCountsEvictionsBeforeRead) {
  LlcConfig config{/*sets=*/1, /*ways=*/4, /*ddio_ways=*/1};
  LlcModel llc(config);
  llc.dma_write(1);
  llc.dma_write(2);  // evicts 1, never read: wasted
  EXPECT_EQ(llc.wasted_ddio_fills(), 1u);
  EXPECT_TRUE(llc.touch_read(2));
  llc.dma_write(3);  // evicts 2, which was read: not wasted
  EXPECT_EQ(llc.wasted_ddio_fills(), 1u);
}

TEST(LlcModelTest, CapacityMatchesGeometry) {
  LlcModel llc;  // defaults: 256 sets x 18 ways x 4KiB
  EXPECT_EQ(llc.capacity_bytes(), 256LL * 18 * 4096);
  EXPECT_EQ(llc.ddio_capacity_bytes(), 256LL * 5 * 4096);
}

TEST(LlcModelTest, OccupancyNeverExceedsCapacityProperty) {
  LlcConfig config{/*sets=*/8, /*ways=*/4, /*ddio_ways=*/2};
  LlcModel llc(config);
  for (PageId p = 1; p <= 10000; ++p) {
    llc.dma_write(p);
    if (p % 3 == 0) llc.touch_read(p / 2 + 1);
    if (p % 5 == 0) llc.insert(p * 7);
  }
  EXPECT_LE(llc.occupancy(), 8 * 4);
}

TEST(LlcModelTest, WorkingSetBeyondDdioCapacityThrashes) {
  // Stream a working set far larger than the DDIO partition with a
  // read following each write after one full round: reads mostly miss.
  LlcModel llc;  // DDIO capacity = 1280 pages
  const PageId working_set = 8000;
  for (int round = 0; round < 3; ++round) {
    for (PageId p = 1; p <= working_set; ++p) llc.dma_write(p);
    for (PageId p = 1; p <= working_set; ++p) llc.touch_read(p);
  }
  EXPECT_GT(llc.read_stats().miss_rate(), 0.8);
}

TEST(LlcModelTest, WorkingSetWithinDdioCapacityHits) {
  LlcModel llc;  // DDIO capacity = 1280 pages over 256 sets
  const PageId working_set = 500;
  // Warm once, then alternate write/read rounds: mostly hits.
  for (PageId p = 1; p <= working_set; ++p) llc.dma_write(p);
  llc.read_stats().clear();
  for (int round = 0; round < 3; ++round) {
    for (PageId p = 1; p <= working_set; ++p) llc.dma_write(p);
    for (PageId p = 1; p <= working_set; ++p) llc.touch_read(p);
  }
  EXPECT_LT(llc.read_stats().miss_rate(), 0.2);
}

TEST(LlcModelTest, InsertReportsResidencyLikeContains) {
  // insert() returning the page's prior residency must leave the model
  // exactly where contains() followed by insert() leaves it.
  LlcConfig config{/*sets=*/4, /*ways=*/4, /*ddio_ways=*/2};
  LlcModel probed(config);
  LlcModel direct(config);
  Rng rng(11);
  int insert_hits = 0;
  for (int op = 0; op < 20000; ++op) {
    const PageId page = 1 + rng.next_below(48);
    bool probed_hit = false;
    bool direct_hit = false;
    switch (rng.next_below(4)) {
      case 0:
        probed.dma_write(page);
        direct.dma_write(page);
        break;
      case 1:
        probed.dma_invalidate(page);
        direct.dma_invalidate(page);
        break;
      case 2:
        probed_hit = probed.touch_read(page);
        direct_hit = direct.touch_read(page);
        break;
      default:
        probed_hit = probed.contains(page);
        probed.insert(page);
        direct_hit = direct.insert(page);
        insert_hits += direct_hit;
        break;
    }
    ASSERT_EQ(probed_hit, direct_hit) << "op " << op;
    ASSERT_EQ(probed.read_stats().hits(), direct.read_stats().hits());
    ASSERT_EQ(probed.read_stats().misses(), direct.read_stats().misses());
    ASSERT_EQ(probed.occupancy(), direct.occupancy()) << "op " << op;
    ASSERT_EQ(probed.wasted_ddio_fills(), direct.wasted_ddio_fills());
  }
  // Both insert outcomes occur.
  EXPECT_GT(insert_hits, 500);
  EXPECT_GT(direct.wasted_ddio_fills(), 0u);
}

}  // namespace
}  // namespace hostsim
