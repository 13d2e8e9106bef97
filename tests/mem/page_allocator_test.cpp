#include "mem/page_allocator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_loop.h"

namespace hostsim {
namespace {

struct AllocatorFixture : ::testing::Test {
  EventLoop loop;
  CostModel cost;
  Core local{loop, cost, /*id=*/0, /*numa_node=*/0};
  Core remote{loop, cost, /*id=*/1, /*numa_node=*/1};
  PageAllocator allocator{/*num_cores=*/2, /*num_nodes=*/2};

  /// Runs `fn` inside a task context on `core` (charging is only legal
  /// there) and drains the loop.
  template <class Fn>
  void in_task(Core& core, Fn fn) {
    Context ctx{"test", false};
    core.post(ctx, [&](Core& c) { fn(c); });
    loop.run_to_completion();
  }
};

TEST_F(AllocatorFixture, AllocReturnsLocalNodePage) {
  in_task(local, [&](Core& c) {
    Page* page = allocator.alloc(c);
    EXPECT_EQ(page->numa_node, 0);
    EXPECT_EQ(allocator.live_pages(), 1);
    page->refs = 1;
    allocator.release(c, page);
  });
  EXPECT_EQ(allocator.live_pages(), 0);
}

TEST_F(AllocatorFixture, FirstAllocPaysBatchedRefill) {
  in_task(local, [&](Core& c) {
    Page* page = allocator.alloc(c);
    EXPECT_EQ(c.account().get(CpuCategory::memory),
              cost.page_alloc_global * cost.pageset_batch);
    page->refs = 1;
    allocator.release(c, page);
  });
  EXPECT_EQ(allocator.pageset_stats().misses(), 1u);
}

TEST_F(AllocatorFixture, SubsequentAllocsHitThePageset) {
  in_task(local, [&](Core& c) {
    std::vector<Page*> pages;
    for (int i = 0; i < 10; ++i) {
      Page* page = allocator.alloc(c);
      page->refs = 1;
      pages.push_back(page);
    }
    for (Page* page : pages) allocator.release(c, page);
  });
  // 1 refill miss, then 9 alloc hits + 10 free hits.
  EXPECT_EQ(allocator.pageset_stats().misses(), 1u);
  EXPECT_EQ(allocator.pageset_stats().hits(), 19u);
}

TEST_F(AllocatorFixture, LifoRecyclingReturnsTheSamePhysicalPage) {
  PageId first = 0;
  in_task(local, [&](Core& c) {
    Page* page = allocator.alloc(c);
    first = page->id;
    page->refs = 1;
    allocator.release(c, page);
    Page* again = allocator.alloc(c);
    EXPECT_EQ(again->id, first);  // stable identity across recycling
    again->refs = 1;
    allocator.release(c, again);
  });
}

TEST_F(AllocatorFixture, RemoteFreeChargesRemotePathAndReturnsHome) {
  Page* page = nullptr;
  in_task(local, [&](Core& c) {
    page = allocator.alloc(c);
    page->refs = 1;
  });
  in_task(remote, [&](Core& c) {
    allocator.release(c, page);
    EXPECT_EQ(c.account().get(CpuCategory::memory),
              cost.page_free_remote);
  });
  EXPECT_EQ(allocator.remote_frees(), 1u);
  // The page went home to node 0's global list: a node-0 refill finds it.
  in_task(local, [&](Core& c) {
    Page* again = allocator.alloc(c);
    EXPECT_EQ(again->numa_node, 0);
    again->refs = 1;
    allocator.release(c, again);
  });
}

TEST_F(AllocatorFixture, RefcountedReleaseFreesOnLastReference) {
  in_task(local, [&](Core& c) {
    Page* page = allocator.alloc(c);
    page->refs = 3;
    allocator.release(c, page);
    allocator.release(c, page);
    EXPECT_EQ(allocator.live_pages(), 1);
    allocator.release(c, page);
    EXPECT_EQ(allocator.live_pages(), 0);
  });
}

TEST_F(AllocatorFixture, PagesetOverflowFlushesBatch) {
  in_task(local, [&](Core& c) {
    std::vector<Page*> pages;
    for (int i = 0; i < cost.pageset_capacity + 2; ++i) {
      Page* page = allocator.alloc(c);
      page->refs = 1;
      pages.push_back(page);
    }
    const auto misses_before = allocator.pageset_stats().misses();
    for (Page* page : pages) allocator.release(c, page);
    EXPECT_GT(allocator.pageset_stats().misses(), misses_before);
  });
}

TEST_F(AllocatorFixture, LivePagesNeverNegativeProperty) {
  in_task(local, [&](Core& c) {
    for (int round = 0; round < 50; ++round) {
      std::vector<Page*> pages;
      for (int i = 0; i < 37; ++i) {
        Page* page = allocator.alloc(c);
        page->refs = 1;
        pages.push_back(page);
      }
      EXPECT_EQ(allocator.live_pages(), 37);
      for (Page* page : pages) allocator.release(c, page);
      EXPECT_EQ(allocator.live_pages(), 0);
    }
  });
}

TEST_F(AllocatorFixture, SlabPagesKeepAddressAndIdAsItGrows) {
  in_task(local, [&](Core& c) {
    std::vector<Page*> pages{allocator.alloc(c)};
    pages.front()->refs = 1;
    const PageId first_id = pages.front()->id;
    while (pages.size() < 100'100) {
      pages.push_back(allocator.alloc(c));
      pages.back()->refs = 1;
    }
    EXPECT_GT(allocator.pages_created(), 100'000u);
    // Every page handed out is still where the slab put it, under the
    // id it was created with.
    EXPECT_EQ(pages.front()->id, first_id);
    EXPECT_EQ(allocator.page(first_id), pages.front());
    std::size_t moved = 0;
    for (Page* page : pages) moved += allocator.page(page->id) != page;
    EXPECT_EQ(moved, 0u);
    for (Page* page : pages) allocator.release(c, page);
  });
}

TEST_F(AllocatorFixture, IdLookupReturnsTheCarrierOrNull) {
  EXPECT_EQ(allocator.page(0), nullptr);
  EXPECT_EQ(allocator.page(1), nullptr);  // nothing created yet
  in_task(local, [&](Core& c) {
    Page* page = allocator.alloc(c);
    page->refs = 1;
    // A refill creates a whole batch, ids 1..batch, in creation order.
    const PageId last = allocator.pages_created();
    EXPECT_EQ(last, static_cast<PageId>(cost.pageset_batch));
    for (PageId id = 1; id <= last; ++id) {
      ASSERT_NE(allocator.page(id), nullptr);
      EXPECT_EQ(allocator.page(id)->id, id);
    }
    EXPECT_EQ(allocator.page(last + 1), nullptr);
    allocator.release(c, page);
  });
}

}  // namespace
}  // namespace hostsim
