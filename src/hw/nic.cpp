#include "hw/nic.h"

#include <algorithm>
#include <utility>

#include "obs/observer.h"
#include "sim/contract.h"

namespace hostsim {
namespace {

std::uint64_t mix_flow(int flow) {
  auto x = static_cast<std::uint64_t>(flow) + 0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  return x;
}

}  // namespace

Nic::Nic(EventLoop& loop, const Config& config, const NumaTopology& topo,
         std::vector<Core*> cores, std::vector<LlcModel*> llcs,
         PageAllocator& allocator, Iommu& iommu, Link& wire, Link::Side side,
         int host_id)
    : loop_(&loop),
      config_(config),
      topo_(topo),
      cores_(std::move(cores)),
      llcs_(std::move(llcs)),
      allocator_(&allocator),
      iommu_(&iommu),
      wire_(&wire),
      side_(side),
      host_id_(host_id) {
  require(config.ring_size > 0, "ring must have descriptors");
  require(config.mtu_payload > 0, "mtu must be positive");
  require(descriptor_bytes() <= 3 * kPageBytes + 1,
          "an rx descriptor spans at most four pages");
  require(!cores_.empty(), "NIC needs cores for IRQ dispatch");
  require(static_cast<int>(llcs_.size()) == topo_.num_nodes,
          "one LLC per NUMA node expected");
  queues_.resize(cores_.size());
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    queues_[i].pool = std::make_unique<PagePool>(allocator, iommu);
    queues_[i].irq_timer = std::make_unique<Timer>(loop, [this, i] {
      RxQueue& q = queues_[i];
      if (!q.napi_active && !q.backlog.empty()) {
        q.napi_active = true;
        kick_napi(static_cast<int>(i));
      }
    });
    // Driver init: pre-post the full ring.  Runs as a softirq task at
    // t=0 so the page allocations are charged in a proper task context.
    cores_[i]->post(softirq_, [this, i](Core& core) {
      replenish(core, queues_[i]);
    });
  }
  wire_->attach(side_, [this](Frame frame) { receive(std::move(frame)); });
}

void Nic::set_fault_injector(FaultInjector* faults) {
  faults_ = faults;
  for (RxQueue& queue : queues_) {
    queue.pool->set_fault_injector(faults, host_id_);
  }
}

void Nic::steer_flow(int flow, int queue) {
  require(queue >= 0 && queue < static_cast<int>(queues_.size()),
          "steering to nonexistent queue");
  steering_[flow] = queue;
}

int Nic::queue_for_flow(int flow) const {
  if (auto it = steering_.find(flow); it != steering_.end()) return it->second;
  return static_cast<int>(mix_flow(flow) % queues_.size());
}

void Nic::set_flow_dst(int flow, int host) {
  require(host >= 0, "flow destination host must be non-negative");
  flow_dst_[flow] = host;
}

void Nic::replenish(Core& core, RxQueue& queue) {
  const int target = config_.ring_size;
  while (static_cast<int>(queue.posted.size() + queue.backlog.size()) <
         target) {
    const FragmentVec span = queue.pool->alloc_span(core, descriptor_bytes());
    if (span.empty()) {
      // Page-pool pressure denied the allocation: leave the ring short
      // and retry on the next NAPI round, exactly like a failed
      // GFP_ATOMIC refill in a real driver.
      break;
    }
    RxDescriptor descriptor{};
    descriptor.first_bytes = static_cast<std::uint16_t>(span[0].bytes);
    descriptor.count = static_cast<std::uint8_t>(span.size());
    for (std::size_t i = 0; i < span.size(); ++i) {
      descriptor.pages[i] = span[i].page->id;
    }
    queue.posted.push_back(descriptor);
  }
}

FragmentVec Nic::fragments_of(const RxDescriptor& descriptor) const {
  FragmentVec fragments;
  Bytes rest = descriptor_bytes();
  for (std::size_t i = 0; i < descriptor.count; ++i) {
    const Bytes take =
        i == 0 ? descriptor.first_bytes : std::min(rest, kPageBytes);
    fragments.push_back(Fragment{allocator_->page(descriptor.pages[i]), take});
    rest -= take;
  }
  return fragments;
}

void Nic::receive(Frame frame) {
  ++rx_frames_;
  const int index = queue_for_flow(frame.flow);
  RxQueue& queue = queues_[static_cast<std::size_t>(index)];
  if (faults_ != nullptr && faults_->ring_stalled(host_id_, index)) {
    // Descriptor-fetch stall (PCIe backpressure): the queue cannot
    // consume descriptors, so every arriving frame is dropped on the
    // floor — ACKs included.
    faults_->note_ring_stall_drop();
    return;
  }
  if (faults_ != nullptr && !faults_->host_up(host_id_)) {
    // Crashed host: the NIC is dark, nothing is received or answered.
    faults_->note_crash_drop();
    return;
  }
  FragmentVec fragments;
  if (frame.payload > 0) {
    if (queue.posted.empty()) {
      ++ring_drops_;
      return;
    }
    fragments = fragments_of(queue.posted.pop_front());
    // The DMA itself costs no CPU; it lands in the LLC iff DCA applies.
    dma_into_cache(fragments);
    if (obs_ != nullptr && !frame.is_ack) {
      frame.obs_span = obs_->span_start(host_id_, frame.flow, frame.seq,
                                        frame.payload, loop_->now());
    }
  }
  // Header-only frames (pure ACKs) take the driver copybreak path: the
  // few bytes are copied into the skb head and the rx buffer is recycled
  // immediately, so they neither hold descriptor pages nor touch the
  // payload cache machinery.
  queue.backlog.push_back(
      BacklogEntry{std::move(frame), std::move(fragments), loop_->now()});
  if (!queue.napi_active && !queue.irq_timer->armed()) {
    if (config_.irq_moderation == 0) {
      queue.napi_active = true;
      kick_napi(index);
      return;
    }
    // Interrupt moderation: batch arrivals for a short window before
    // raising the IRQ (CX-5 style rx-usecs coalescing).
    queue.irq_timer->arm_after(config_.irq_moderation);
  }
}

void Nic::kick_napi(int index) {
  require(static_cast<bool>(rx_handler_), "rx handler not set");
  ++irqs_;
  if (obs_ != nullptr) {
    // Frames already queued ride this IRQ; stamping is idempotent, so
    // entries that saw an earlier kick keep their first stamp.  Frames
    // arriving during the active NAPI round get no IRQ stage at all —
    // matching reality, where they are polled without an interrupt.
    const RxQueue& queue = queues_[static_cast<std::size_t>(index)];
    for (std::size_t i = 0; i < queue.backlog.size(); ++i) {
      const auto span = queue.backlog[i].frame.obs_span;
      if (span >= 0) obs_->span_stamp(span, obs::Stage::irq, loop_->now());
    }
  }
  cores_[static_cast<std::size_t>(index)]->post(
      softirq_, [this, index](Core& core) {
        core.charge(CpuCategory::etc, core.cost().irq_entry);
        rx_handler_(core, index);
      });
}

void Nic::release_fragments(Core& core, FragmentVec& fragments) {
  allocator_->release(core, fragments);
  fragments.clear();
}

std::optional<Nic::PolledFrame> Nic::poll_one(Core& core, int index) {
  RxQueue& queue = queues_.at(static_cast<std::size_t>(index));
  if (queue.backlog.empty()) return std::nullopt;

  BacklogEntry entry = queue.backlog.pop_front();

  PolledFrame polled;
  polled.arrived_at = entry.arrived;
  polled.fragments = std::move(entry.fragments);
  Frame frame = std::move(entry.frame);
  if (!polled.fragments.empty()) {
    iommu_->charge_unmap(
        core, static_cast<double>(descriptor_bytes()) / kPageBytes);
  }

  // Hardware receive coalescing: merge a contiguous same-flow train into
  // one delivered unit at zero CPU cost.
  if (config_.lro && !frame.is_ack && !frame.is_syn) {
    while (!queue.backlog.empty() && frame.payload < config_.lro_max_bytes) {
      BacklogEntry& next = queue.backlog.front();
      if (next.frame.is_ack || next.frame.is_syn ||
          next.frame.flow != frame.flow ||
          next.frame.seq != frame.seq + frame.payload ||
          frame.payload + next.frame.payload > config_.lro_max_bytes) {
        break;
      }
      iommu_->charge_unmap(
          core, static_cast<double>(descriptor_bytes()) / kPageBytes);
      polled.fragments.append_from(std::move(next.fragments));
      // The merged train keeps the first sampled segment's span; later
      // segments' journeys are absorbed (their spans stay incomplete).
      if (frame.obs_span < 0) frame.obs_span = next.frame.obs_span;
      frame.payload += next.frame.payload;
      frame.ecn = frame.ecn || next.frame.ecn;
      // One bad frame poisons the merged train's checksum.
      frame.corrupt = frame.corrupt || next.frame.corrupt;
      frame.sent_at = next.frame.sent_at;
      ++polled.segments;
      queue.backlog.pop_front();
    }
  }

  polled.frame = std::move(frame);
  return polled;
}

void Nic::dma_into_cache(const FragmentVec& fragments) {
  for (const Fragment& fragment : fragments) {
    Page* page = fragment.page;
    if (config_.dca && page->numa_node == topo_.nic_node) {
      // DDIO pushes the DMA write into the NIC-local LLC.
      llcs_[static_cast<std::size_t>(topo_.nic_node)]->dma_write(page->id);
    } else {
      // DMA to DRAM: coherency invalidates any cached copy.
      llcs_[static_cast<std::size_t>(page->numa_node)]->dma_invalidate(
          page->id);
    }
  }
}

std::size_t Nic::backlog(int index) const {
  return queues_.at(static_cast<std::size_t>(index)).backlog.size();
}

int Nic::posted_descriptors(int index) const {
  return static_cast<int>(
      queues_.at(static_cast<std::size_t>(index)).posted.size());
}

void Nic::napi_complete(Core& core, int index) {
  RxQueue& queue = queues_.at(static_cast<std::size_t>(index));
  require(queue.napi_active, "napi_complete on an idle queue");
  // Driver replenishes rx descriptors during NAPI (paper §2.1).
  replenish(core, queue);
  if (!queue.backlog.empty()) {
    // Budget exhausted with work remaining: Linux defers the remainder
    // to ksoftirqd, which is scheduled fairly against user threads — so
    // the continuation runs at user priority and interleaves with the
    // application instead of starving it.
    cores_[static_cast<std::size_t>(index)]->post(
        queue.ksoftirqd,
        [this, index](Core& core2) { rx_handler_(core2, index); });
  } else {
    queue.napi_active = false;  // re-arm the IRQ
  }
}

}  // namespace hostsim
