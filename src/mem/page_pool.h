// Per-rx-queue DMA page pool.
//
// Models the driver's packed rx buffer scheme: descriptor memory is
// carved sequentially out of pages, so a 9000B jumbo frame spans ~2.2
// pages and two 1500B frames share a page.  Pages are allocated from the
// kernel page allocator on the NAPI (softirq) path — exactly where Linux
// replenishes rx rings — and IOMMU-mapped there when the IOMMU is on.
#ifndef HOSTSIM_MEM_PAGE_POOL_H
#define HOSTSIM_MEM_PAGE_POOL_H

#include <vector>

#include "cpu/core.h"
#include "mem/iommu.h"
#include "mem/page.h"
#include "mem/page_allocator.h"
#include "sim/fault_injector.h"

namespace hostsim {

class PagePool {
 public:
  PagePool(PageAllocator& allocator, Iommu& iommu)
      : allocator_(&allocator), iommu_(&iommu) {}

  /// Carves a packed span of `bytes` for one rx descriptor, allocating
  /// new pages (and IOMMU-mapping them) as needed.  Each returned
  /// fragment holds one page reference.
  ///
  /// Returns an empty list when the fault injector denies a needed
  /// page allocation (pool-pressure window) — the caller must treat
  /// this like a failed GFP_ATOMIC allocation and retry later.
  FragmentVec alloc_span(Core& core, Bytes bytes);

  /// Attaches the run's fault injector (page-pool pressure windows) for
  /// the pool's host.
  void set_fault_injector(FaultInjector* faults, int host) {
    faults_ = faults;
    host_ = host;
  }

  /// Page the pool is currently carving from (nullptr when exhausted);
  /// the pool holds one reference to it.  Used by the leak sweep.
  const Page* current_page() const { return current_; }

 private:
  PageAllocator* allocator_;
  Iommu* iommu_;
  FaultInjector* faults_ = nullptr;
  int host_ = 0;
  Page* current_ = nullptr;
  Bytes used_in_current_ = 0;
};

}  // namespace hostsim

#endif  // HOSTSIM_MEM_PAGE_POOL_H
