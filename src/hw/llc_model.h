// Last-level cache model with a DDIO (Direct Cache Access) way partition.
//
// Granularity is one 4KiB page: the datapath's DMA writes and data copies
// are streaming, so residency of a page's cachelines is strongly
// correlated and a page-granular LRU set-associative model captures the
// phenomena the paper measures:
//
//  * DMA writes (DDIO) may allocate only into `ddio_ways` of each set
//    (Intel DDIO reserves 2 of the LLC ways, ~18% => ~3MB of the 20MB L3
//    in the paper's testbed).  A DMA write to a page already cached
//    updates it in place.
//  * Demand reads (data copy) hit or miss; a miss does NOT fill the LLC,
//    matching the non-inclusive Skylake-SP LLC where demand data goes to
//    the core's L2 and clean L2 victims are dropped.  Dirty write-backs
//    (sender-side copies into kernel buffers) do insert().
//  * With DCA disabled, DMA writes *invalidate* cached copies instead
//    (coherent DMA to DRAM), so the first copy access always misses.
//
// Both fig. 3(e) effects emerge structurally: queued data beyond the DDIO
// capacity is evicted before the application copies it, and large NIC
// rings spread DMA targets over many distinct pages, defeating in-place
// write hits even when total in-flight data is small.
#ifndef HOSTSIM_HW_LLC_MODEL_H
#define HOSTSIM_HW_LLC_MODEL_H

#include <cstdint>
#include <vector>

#include "mem/page.h"
#include "sim/stats.h"

namespace hostsim {

struct LlcConfig {
  int sets = 256;      ///< page-granular sets (256 * 18 * 4KiB ~= 18.9MB)
  int ways = 18;
  int ddio_ways = 5;   ///< DDIO-reserved share (see EXPERIMENTS.md on sizing)
};

class LlcModel {
 public:
  explicit LlcModel(const LlcConfig& config = {});

  /// DMA write of one page via DDIO.  Updates in place on a write hit;
  /// otherwise allocates into the DDIO ways, evicting their LRU page.
  void dma_write(PageId page);

  /// DMA write with DCA disabled: invalidates any cached copy.
  void dma_invalidate(PageId page);

  /// Demand read (data copy): returns true on hit.  A miss does not
  /// fill the cache (non-inclusive LLC; see header comment).
  bool touch_read(PageId page);

  /// Demand write fill (sender-side copy into fresh kernel pages).
  /// Returns true when the page was already resident.
  bool insert(PageId page);

  bool contains(PageId page) const;

  /// Pages currently resident (for tests / occupancy assertions).
  int occupancy() const;
  Bytes capacity_bytes() const;
  Bytes ddio_capacity_bytes() const;

  /// Copy-read hit/miss statistics.
  const HitRate& read_stats() const { return reads_; }
  HitRate& read_stats() { return reads_; }
  /// DMA write-hit (page still cached) statistics.
  const HitRate& dma_stats() const { return dma_; }
  /// DDIO allocations that were evicted before ever being read.
  std::uint64_t wasted_ddio_fills() const { return wasted_ddio_fills_; }

 private:
  struct Way {
    PageId page = 0;  ///< 0 = empty
    bool referenced = false;  ///< read at least once since fill
    bool ddio_fill = false;
    std::uint64_t last_use = 0;
  };
  static_assert(sizeof(Way) == 16);

  std::size_t set_of(PageId page) const;
  Way* find(std::size_t set, PageId page);

  LlcConfig config_;
  std::vector<Way> ways_;  // sets * ways, row-major
  std::uint64_t tick_ = 0;

  HitRate reads_;
  HitRate dma_;
  std::uint64_t wasted_ddio_fills_ = 0;
};

}  // namespace hostsim

#endif  // HOSTSIM_HW_LLC_MODEL_H
