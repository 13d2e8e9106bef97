#include "mem/page_pool.h"

#include <algorithm>

#include "sim/contract.h"

namespace hostsim {

FragmentVec PagePool::alloc_span(Core& core, Bytes bytes) {
  require(bytes > 0, "descriptor span must be positive");
  FragmentVec fragments;
  Bytes remaining = bytes;
  while (remaining > 0) {
    if (current_ == nullptr || used_in_current_ >= kPageBytes) {
      if (faults_ != nullptr && !faults_->pool_alloc_allowed(host_)) {
        // Allocation denied (memory-pressure window).  Roll back the
        // partially carved span so the caller sees a clean failure.
        allocator_->release(core, fragments);
        return {};
      }
      // The pool drops its own reference to the exhausted page; frames
      // carved from it keep it alive via their fragment references.
      if (current_ != nullptr) allocator_->release(core, current_);
      current_ = allocator_->alloc(core);
      current_->refs = 1;  // pool's carving reference
      used_in_current_ = 0;
      iommu_->charge_map(core, 1.0);
    }
    const Bytes take = std::min(remaining, kPageBytes - used_in_current_);
    ++current_->refs;
    fragments.push_back(Fragment{current_, take});
    used_in_current_ += take;
    remaining -= take;
  }
  return fragments;
}

}  // namespace hostsim
