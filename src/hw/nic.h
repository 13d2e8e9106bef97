// 100Gbps NIC model: rx queues with descriptor rings, DMA via the page
// pool, DDIO insertion, IRQ + NAPI hand-off, flow steering, and LRO.
//
// One rx queue per core (queue index == core id), as in the paper's
// setup where IRQs are explicitly mapped per flow.  The steering table
// decides which queue (and therefore which IRQ core) receives each
// flow's frames — aRFS steers to the application's core, the paper's
// worst-case no-aRFS configuration steers to a NIC-remote core.
//
// Descriptors are pre-posted with page-pool memory and consumed in ring
// order; the driver replenishes them during NAPI (paper §2.1).  A posted
// descriptor is kept as the ids of the pages its span was carved from;
// its fragment list is rebuilt when a frame is DMAd into it.  The ring
// size therefore sets the page-reuse distance: with a small ring the
// same pages recycle while still LLC-resident (DMA write-hits), with a
// large ring every DMA write allocates a cold page into the DDIO ways —
// one of the two fig. 3(e) mechanisms.
#ifndef HOSTSIM_HW_NIC_H
#define HOSTSIM_HW_NIC_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cpu/core.h"
#include "hw/llc_model.h"
#include "hw/numa_topology.h"
#include "hw/link.h"
#include "mem/iommu.h"
#include "mem/page_allocator.h"
#include "mem/page_pool.h"
#include "mem/ring.h"
#include "sim/fault_injector.h"
#include "sim/timer.h"

namespace hostsim {

namespace obs {
class Observer;
}  // namespace obs

/// Receiver-side flow steering (paper Table 2).  RSS/RPS hash the
/// 4-tuple to a core; RFS/aRFS find the application's core.
enum class SteeringMode : std::uint8_t { rss, rps, rfs, arfs };

class Nic {
 public:
  struct Config {
    Bytes mtu_payload = 1500;  ///< max TCP payload per wire frame
    int ring_size = 1024;      ///< rx descriptors per queue
    bool dca = true;           ///< DDIO: DMA into the NIC-local LLC
    bool lro = false;          ///< hardware receive coalescing
    Bytes lro_max_bytes = 65536;
    Nanos irq_moderation = 8'000;  ///< rx interrupt coalescing window
  };

  /// A frame handed to the stack by NAPI, with its DMA'd page fragments.
  struct PolledFrame {
    Frame frame;
    FragmentVec fragments;
    int segments = 1;  ///< >1 when LRO merged multiple wire frames
    Nanos arrived_at = 0;
  };

  /// Invoked in softirq task context on the queue's core when NAPI work
  /// is pending; the stack polls frames and calls napi_complete().
  using RxHandler = std::function<void(Core&, int queue)>;

  /// `host_id` is this NIC's host index in the topology; it is stamped
  /// into every transmitted frame so a Switch can forward by destination.
  Nic(EventLoop& loop, const Config& config, const NumaTopology& topo,
      std::vector<Core*> cores, std::vector<LlcModel*> llcs,
      PageAllocator& allocator, Iommu& iommu, Link& wire, Link::Side side,
      int host_id = 0);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  const Config& config() const { return config_; }
  Bytes mtu_payload() const { return config_.mtu_payload; }
  /// Memory backing one rx descriptor (one MTU frame + headers).
  Bytes descriptor_bytes() const {
    return config_.mtu_payload + kFrameHeaderBytes;
  }

  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }

  /// Attaches the run's fault injector (rx-ring stalls, page-pool
  /// pressure); propagated, with this NIC's host id, to every queue's
  /// page pool.
  void set_fault_injector(FaultInjector* faults);

  /// Attaches the run's observability hub (null = disabled; the hooks
  /// reduce to one pointer compare).
  void set_observer(obs::Observer* observer) { obs_ = observer; }

  // --- Steering ----------------------------------------------------------

  /// Directs `flow`'s frames to queue `queue` (== the IRQ core id).
  void steer_flow(int flow, int queue);
  int queue_for_flow(int flow) const;

  // --- TX ----------------------------------------------------------------

  /// Records that `flow`'s peer lives on `host`; transmitted frames for
  /// that flow carry it as dst_host.  Unmapped flows default to the
  /// back-to-back peer (1 - host_id).
  void set_flow_dst(int flow, int host);

  /// Hands a wire frame to the link (segmentation cost, if any, was paid
  /// by the stack; TSO segmentation is free by definition), stamping the
  /// topology addresses the switch forwards by.
  void transmit(Frame frame) {
    if (faults_ != nullptr && !faults_->host_up(host_id_)) {
      // Crashed host: nothing leaves a dark NIC (e.g. an in-flight RTO
      // task racing the crash's socket teardown).
      faults_->note_crash_drop();
      return;
    }
    frame.src_host = static_cast<std::int16_t>(host_id_);
    if (auto it = flow_dst_.find(frame.flow); it != flow_dst_.end()) {
      frame.dst_host = static_cast<std::int16_t>(it->second);
    } else {
      frame.dst_host = static_cast<std::int16_t>(1 - host_id_);
    }
    wire_->transmit(side_, frame);
  }

  // --- RX ----------------------------------------------------------------

  /// Link delivery entry point: consumes the next posted descriptor
  /// (DMAing into its pages, with DDIO insertion) or drops the frame.
  void receive(Frame frame);

  /// Takes one frame (or one LRO-merged train) from the queue backlog
  /// and charges the IOMMU unmap.  Softirq task context only.
  std::optional<PolledFrame> poll_one(Core& core, int queue);

  /// Number of frames waiting in a queue's backlog.
  std::size_t backlog(int queue) const;

  /// Ends a NAPI round: replenishes rx descriptors (allocating fresh
  /// page spans) and either re-posts the poll (backlog remains) or
  /// re-arms the queue's IRQ.
  void napi_complete(Core& core, int queue);

  /// Posted (ready) descriptors of a queue; for tests.
  int posted_descriptors(int queue) const;

  // --- Stats --------------------------------------------------------------

  std::uint64_t rx_frames() const { return rx_frames_; }
  std::uint64_t ring_drops() const { return ring_drops_; }
  std::uint64_t irqs() const { return irqs_; }

  /// Calls `visit(const Page*)` for every page the NIC currently holds a
  /// reference to, queue by queue (posted rx descriptors, backlog, pool
  /// carving page), once per holder; used by the end-of-run leak sweep.
  template <class Visit>
  void for_each_held_page(Visit&& visit) const {
    for (const RxQueue& queue : queues_) {
      for (std::size_t i = 0; i < queue.posted.size(); ++i) {
        const RxDescriptor& descriptor = queue.posted[i];
        for (std::size_t k = 0; k < descriptor.count; ++k) {
          visit(allocator_->page(descriptor.pages[k]));
        }
      }
      for (std::size_t i = 0; i < queue.backlog.size(); ++i) {
        for (const Fragment& fragment : queue.backlog[i].fragments) {
          visit(fragment.page);
        }
      }
      if (const Page* carving = queue.pool->current_page()) visit(carving);
    }
  }

  /// Appends the pages for_each_held_page() visits to `held`, in order.
  void collect_held_pages(std::vector<const Page*>& held) const {
    for_each_held_page([&held](const Page* page) { held.push_back(page); });
  }

 private:
  /// A posted descriptor: the pages of its packed span.  Every fragment
  /// after the first is a whole page except the last, which takes the
  /// rest of descriptor_bytes().
  struct RxDescriptor {
    std::array<PageId, 4> pages;
    std::uint16_t first_bytes;  ///< bytes of the first fragment
    std::uint8_t count;         ///< fragments (pages) in the span
  };
  static_assert(sizeof(RxDescriptor) == 20);
  struct BacklogEntry {
    Frame frame;
    FragmentVec fragments;
    Nanos arrived;
  };
  struct RxQueue {
    Ring<RxDescriptor> posted;
    Ring<BacklogEntry> backlog;
    std::unique_ptr<PagePool> pool;
    bool napi_active = false;
    /// Interrupt-moderation window timer; armed() doubles as the old
    /// irq_pending flag.  Behind a unique_ptr because Timer is
    /// address-stable (non-movable) while RxQueue lives in a vector.
    std::unique_ptr<Timer> irq_timer;
    /// Budget-exhausted NAPI continuations run here: user priority, so
    /// they round-robin with application threads exactly like ksoftirqd
    /// competing under CFS.
    Context ksoftirqd{"ksoftirqd", /*kernel=*/false};
  };

  FragmentVec fragments_of(const RxDescriptor& descriptor) const;
  void dma_into_cache(const FragmentVec& fragments);
  void replenish(Core& core, RxQueue& queue);
  void release_fragments(Core& core, FragmentVec& fragments);
  void kick_napi(int queue);

  EventLoop* loop_;
  Config config_;
  NumaTopology topo_;
  std::vector<Core*> cores_;
  std::vector<LlcModel*> llcs_;
  PageAllocator* allocator_;
  Iommu* iommu_;
  Link* wire_;
  Link::Side side_;
  int host_id_ = 0;
  FaultInjector* faults_ = nullptr;
  obs::Observer* obs_ = nullptr;
  Context softirq_{"softirq", /*kernel=*/true};

  std::vector<RxQueue> queues_;
  std::unordered_map<int, int> steering_;
  std::unordered_map<int, int> flow_dst_;  ///< flow -> peer host index
  RxHandler rx_handler_;

  std::uint64_t rx_frames_ = 0;
  std::uint64_t ring_drops_ = 0;
  std::uint64_t irqs_ = 0;
};

}  // namespace hostsim

#endif  // HOSTSIM_HW_NIC_H
