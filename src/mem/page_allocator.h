// Kernel page allocator model: per-node global free lists with per-core
// pagesets.
//
// Mirrors the Linux per-cpu pageset design the paper leans on for its
// fig. 5(c) analysis: allocations are cheap while the calling core's
// pageset has pages; an empty pageset triggers a batched (more expensive)
// refill from the node's global free list.  Frees to the local node go
// back to the pageset (flushing a batch when it overflows); frees to a
// remote node are significantly more expensive.
//
// Page *identity* (PageId) is stable across recycling — a page popped
// from the pageset is the same physical page that was freed earlier.
// This is load-bearing for the cache model: with a small NIC rx ring the
// same few pages cycle through DMA and stay LLC-resident, which is
// exactly the paper's fig. 3(e) ring-size effect.
//
// Pages live in a slab of fixed-size chunks that never move, because
// fragments and pagesets keep `Page*`.  Ids are dense per allocator: the
// n-th page created has id n, so `page(id)` is an index, the leak sweep
// can mark pages by id, and a posted rx descriptor need only keep ids.
#ifndef HOSTSIM_MEM_PAGE_ALLOCATOR_H
#define HOSTSIM_MEM_PAGE_ALLOCATOR_H

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "cpu/core.h"
#include "mem/page.h"
#include "sim/stats.h"

namespace hostsim {

class PageAllocator {
 public:
  PageAllocator(int num_cores, int num_nodes);

  PageAllocator(const PageAllocator&) = delete;
  PageAllocator& operator=(const PageAllocator&) = delete;

  /// Allocates one page on the calling core's NUMA node, charging the
  /// "memory" category on `core` (pageset hit, or amortized batched
  /// refill from the global list).  Must be called from within a task.
  Page* alloc(Core& core);

  /// Drops one page reference; frees the page when the last reference
  /// drops.
  void release(Core& core, Page* page);
  /// Drops one reference per fragment, in order.
  void release(Core& core, const FragmentVec& fragments);

  /// Frees a page with no outstanding references.  Local-node frees go
  /// through the pageset; remote-node frees take the expensive global
  /// path (paper §3.1: "page free operations to local NUMA memory are
  /// significantly cheaper than those for remote NUMA memory").
  void free(Core& core, Page* page);

  /// Pageset effectiveness: hit = pageset op, miss = global round trip.
  const HitRate& pageset_stats() const { return pageset_stats_; }
  std::uint64_t remote_frees() const { return remote_frees_; }
  std::uint64_t pages_created() const { return pages_created_; }

  /// Pages currently live (allocated and not yet freed); for tests.
  std::int64_t live_pages() const { return live_pages_; }

  /// The page carrying `id`, or nullptr for 0 and for ids past the last
  /// page created.  O(1).
  const Page* page(PageId id) const {
    if (id == 0 || id > pages_created_) return nullptr;
    return &slab_[(id - 1) / kChunkPages][(id - 1) % kChunkPages];
  }
  Page* page(PageId id) {
    return const_cast<Page*>(std::as_const(*this).page(id));
  }

 private:
  static constexpr std::uint64_t kChunkPages = 1024;

  int num_cores_;
  std::vector<std::vector<Page*>> pagesets_;  // per core, LIFO (cache-warm)
  std::vector<std::deque<Page*>> global_;    // per node, FIFO
  std::vector<std::unique_ptr<Page[]>> slab_;  // page id - 1 by chunk
  std::uint64_t pages_created_ = 0;

  HitRate pageset_stats_;
  std::uint64_t remote_frees_ = 0;
  std::int64_t live_pages_ = 0;
};

}  // namespace hostsim

#endif  // HOSTSIM_MEM_PAGE_ALLOCATOR_H
