#include "mem/page_allocator.h"

#include "sim/contract.h"

namespace hostsim {

PageAllocator::PageAllocator(int num_cores, int num_nodes)
    : num_cores_(num_cores) {
  require(num_cores > 0, "allocator needs at least one core");
  require(num_nodes > 0, "allocator needs at least one node");
  pagesets_.resize(static_cast<std::size_t>(num_cores));
  global_.resize(static_cast<std::size_t>(num_nodes));
}

Page* PageAllocator::alloc(Core& core) {
  const CostModel& cost = core.cost();
  require(core.id() >= 0 && core.id() < num_cores_, "core id out of range");
  auto& pageset = pagesets_[static_cast<std::size_t>(core.id())];
  const int node = core.numa_node();
  auto& global = global_.at(static_cast<std::size_t>(node));

  if (pageset.empty()) {
    // Batched refill from the node's global free list: the whole batch
    // cost is charged up front, making bursty consumption (deep NAPI
    // batches) expensive and low steady per-core rates cheap — the
    // mechanism behind the paper's fig. 5(c).
    pageset_stats_.miss();
    core.charge(CpuCategory::memory,
                cost.page_alloc_global * cost.pageset_batch);
    for (int i = 0; i < cost.pageset_batch; ++i) {
      Page* page;
      if (!global.empty()) {
        page = global.front();
        global.pop_front();
      } else {
        require(pages_created_ < ~PageId{0}, "page ids exhausted");
        if (pages_created_ % kChunkPages == 0) {
          slab_.push_back(std::make_unique<Page[]>(kChunkPages));
        }
        page = &slab_.back()[pages_created_ % kChunkPages];
        page->id = static_cast<PageId>(++pages_created_);
        page->numa_node = node;
      }
      pageset.push_back(page);
    }
  } else {
    pageset_stats_.hit();
    core.charge(CpuCategory::memory, cost.page_alloc_pageset);
  }

  Page* page = pageset.back();  // LIFO: most recently freed, cache-warm
  pageset.pop_back();
  require(page->refs == 0, "allocated page has stale references");
  ++live_pages_;
  return page;
}

void PageAllocator::release(Core& core, Page* page) {
  require(page != nullptr && page->refs > 0, "release of unreferenced page");
  if (--page->refs == 0) free(core, page);
}

void PageAllocator::release(Core& core, const FragmentVec& fragments) {
  for (const Fragment& fragment : fragments) release(core, fragment.page);
}

void PageAllocator::free(Core& core, Page* page) {
  require(page != nullptr && page->refs == 0, "free of referenced page");
  const CostModel& cost = core.cost();
  --live_pages_;
  if (page->numa_node == core.numa_node()) {
    auto& pageset = pagesets_[static_cast<std::size_t>(core.id())];
    core.charge(CpuCategory::memory, cost.page_free_local);
    pageset.push_back(page);
    if (static_cast<int>(pageset.size()) > cost.pageset_capacity) {
      // Overflow: flush a batch back to the global list.
      auto& global = global_.at(static_cast<std::size_t>(page->numa_node));
      pageset_stats_.miss();
      core.charge(CpuCategory::memory,
                  cost.page_alloc_global * cost.pageset_batch);
      for (int i = 0; i < cost.pageset_batch && !pageset.empty(); ++i) {
        global.push_back(pageset.front());
        pageset.erase(pageset.begin());
      }
    } else {
      pageset_stats_.hit();
    }
  } else {
    ++remote_frees_;
    core.charge(CpuCategory::memory, cost.page_free_remote);
    global_.at(static_cast<std::size_t>(page->numa_node)).push_back(page);
  }
}

}  // namespace hostsim
