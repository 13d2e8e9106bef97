#include "hw/llc_model.h"

#include "sim/contract.h"

namespace hostsim {
namespace {

/// Stafford's mix13 finalizer: spreads page ids across sets the way
/// physical page placement spreads addresses across the real cache.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace

LlcModel::LlcModel(const LlcConfig& config) : config_(config) {
  require(config.sets > 0 && config.ways > 0, "cache must have sets and ways");
  require(config.ddio_ways >= 0 && config.ddio_ways <= config.ways,
          "ddio_ways must be within [0, ways]");
  ways_.assign(static_cast<std::size_t>(config.sets) *
                   static_cast<std::size_t>(config.ways),
               Way{});
}

std::size_t LlcModel::set_of(PageId page) const {
  return static_cast<std::size_t>(mix(page) %
                                  static_cast<std::uint64_t>(config_.sets));
}

LlcModel::Way* LlcModel::find(std::size_t set, PageId page) {
  Way* row = &ways_[set * static_cast<std::size_t>(config_.ways)];
  for (int w = 0; w < config_.ways; ++w) {
    if (row[w].page == page) return &row[w];
  }
  return nullptr;
}

void LlcModel::dma_write(PageId page) {
  require(page != 0, "page id 0 is reserved");
  const std::size_t set = set_of(page);
  ++tick_;
  if (Way* way = find(set, page)) {
    way->last_use = tick_;
    dma_.hit();
    return;
  }
  dma_.miss();
  // Allocate within the DDIO ways only.
  Way* row = &ways_[set * static_cast<std::size_t>(config_.ways)];
  Way* victim = nullptr;
  for (int w = 0; w < config_.ddio_ways; ++w) {
    if (row[w].page == 0) {
      victim = &row[w];
      break;
    }
    if (victim == nullptr || row[w].last_use < victim->last_use) {
      victim = &row[w];
    }
  }
  if (victim == nullptr) return;  // ddio_ways == 0: DMA bypasses the cache
  if (victim->page != 0 && victim->ddio_fill && !victim->referenced) {
    ++wasted_ddio_fills_;
  }
  *victim = Way{page, /*referenced=*/false, /*ddio_fill=*/true, tick_};
}

void LlcModel::dma_invalidate(PageId page) {
  require(page != 0, "page id 0 is reserved");
  if (Way* way = find(set_of(page), page)) *way = Way{};
}

bool LlcModel::touch_read(PageId page) {
  require(page != 0, "page id 0 is reserved");
  const std::size_t set = set_of(page);
  ++tick_;
  if (Way* way = find(set, page)) {
    way->last_use = tick_;
    way->referenced = true;
    reads_.hit();
    return true;
  }
  // Non-inclusive LLC (Skylake-SP): a demand read pulls the line toward
  // the core's L2 and does NOT install it here — clean L2 victims are
  // silently dropped.  A missed page therefore stays cold until the next
  // DMA write allocates it again, which is what keeps the recycled rx
  // page working set from becoming permanently LLC-resident.
  reads_.miss();
  return false;
}

bool LlcModel::insert(PageId page) {
  const std::size_t set = set_of(page);
  ++tick_;
  if (Way* way = find(set, page)) {
    way->last_use = tick_;
    return true;
  }
  Way* row = &ways_[set * static_cast<std::size_t>(config_.ways)];
  Way* victim = &row[0];
  for (int w = 0; w < config_.ways; ++w) {
    if (row[w].page == 0) {
      victim = &row[w];
      break;
    }
    if (row[w].last_use < victim->last_use) victim = &row[w];
  }
  if (victim->page != 0 && victim->ddio_fill && !victim->referenced) {
    ++wasted_ddio_fills_;
  }
  *victim = Way{page, /*referenced=*/true, /*ddio_fill=*/false, tick_};
  return false;
}

bool LlcModel::contains(PageId page) const {
  return const_cast<LlcModel*>(this)->find(set_of(page), page) != nullptr;
}

int LlcModel::occupancy() const {
  int count = 0;
  for (const Way& way : ways_) count += way.page != 0;
  return count;
}

Bytes LlcModel::capacity_bytes() const {
  return static_cast<Bytes>(config_.sets) * config_.ways * kPageBytes;
}

Bytes LlcModel::ddio_capacity_bytes() const {
  return static_cast<Bytes>(config_.sets) * config_.ddio_ways * kPageBytes;
}

}  // namespace hostsim
