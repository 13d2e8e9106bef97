// Kernel page and page-fragment primitives.
//
// Payload data is never materialized: the simulator tracks *which* pages
// hold it, on which NUMA node they live, and how many references (skb
// fragments) still point at them.  Cache behaviour is modelled per page
// (4KiB), which is accurate for the streaming DMA + streaming copy access
// patterns of the network datapath.
#ifndef HOSTSIM_MEM_PAGE_H
#define HOSTSIM_MEM_PAGE_H

#include <cstdint>

#include "mem/small_vec.h"
#include "sim/units.h"

namespace hostsim {

inline constexpr Bytes kPageBytes = 4096;

/// Page identity, unique within its allocator; used as the cache tag.
using PageId = std::uint32_t;

struct Page {
  PageId id = 0;
  int numa_node = 0;
  int refs = 0;  ///< outstanding fragment references
};
static_assert(sizeof(Page) == 12);

/// A byte range within a page, referenced by an skb.
struct Fragment {
  Page* page = nullptr;
  Bytes bytes = 0;
};

/// Fragment list of one descriptor or skb.  Inlines the common case —
/// a 9066-byte jumbo descriptor spans 3 or 4 packed pool pages, a
/// 1566-byte one 1 or 2 — and spills to the heap only for merged GRO/LRO
/// trains.
using FragmentVec = SmallVec<Fragment, 4>;

}  // namespace hostsim

#endif  // HOSTSIM_MEM_PAGE_H
