#include "net/transport.h"

#include <algorithm>
#include <utility>

#include "net/gso.h"
#include "net/stack.h"
#include "obs/observer.h"
#include "sim/contract.h"

namespace hostsim {

std::string_view to_string(SocketError error) {
  switch (error) {
    case SocketError::none: return "none";
    case SocketError::econnreset: return "econnreset";
    case SocketError::etimedout: return "etimedout";
  }
  return "?";
}

std::string_view to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::tcp:
      return "tcp";
    case TransportKind::homa:
      return "homa";
  }
  return "?";
}

TransportSocket::TransportSocket(Stack& stack, int flow, int app_core)
    : stack_(&stack), flow_(flow), app_core_(app_core) {}

TransportSocket::~TransportSocket() = default;

// --------------------------------------------------------------------------
// Failure surface
// --------------------------------------------------------------------------

void TransportSocket::abort(Core& core, SocketError reason,
                            bool killed_by_fault) {
  require(reason != SocketError::none, "abort needs a terminal error");
  if (dead()) {
    // Idempotent, but a fault kill is sticky: a socket first reset by the
    // app and then swept up by a crash stays attributable to the fault.
    killed_by_fault_ = killed_by_fault_ || killed_by_fault;
    return;
  }
  error_ = reason;
  killed_by_fault_ = killed_by_fault;

  // Release every page the connection holds.  Receive-queue bytes are
  // rx_covered (the peer believes they were delivered) but never reached
  // the application: the byte-conservation invariant credits them as
  // destroyed instead of delivered.  Out-of-order / reassembly bytes
  // were never covered, so their pages release without a ledger entry.
  release_tx(core);
  destroyed_rx_bytes_ += rq_bytes_;
  for (const Skb& skb : rq_) release_pages(core, skb);
  rq_.clear();
  rq_bytes_ = 0;
  release_rx(core);
  stack_->note_socket_abort(destroyed_rx_bytes_);

  // Fail pending I/O: the error callback first (so a woken waiter already
  // observes the error), then both waiters so blocked send()/recv()
  // return 0 instead of sleeping forever.
  if (on_error_) {
    error_reported_ = true;
    on_error_(reason);
  }
  if (rx_waiter_ != nullptr) rx_waiter_->notify();
  if (tx_waiter_ != nullptr) tx_waiter_->notify();
}

void TransportSocket::on_rst(Core& core) {
  if (dead()) return;
  abort(core, SocketError::econnreset);
}

// --------------------------------------------------------------------------
// Locking and wakeups
// --------------------------------------------------------------------------

void TransportSocket::lock(Core& core) {
  // The socket spinlock bounces between cores when the softirq (IRQ
  // context) and the application run on different cores — the paper's
  // explanation for high lock overhead with aRFS disabled (§3.1).
  const bool contended = last_lock_core_ >= 0 && last_lock_core_ != core.id();
  core.charge(CpuCategory::lock, contended ? core.cost().lock_contended
                                           : core.cost().lock_uncontended);
  last_lock_core_ = core.id();
}

void TransportSocket::wake_reader(std::int32_t wake_span) {
  if (rq_bytes_ <= 0 || rx_waiter_ == nullptr) return;
  // Scheduler wakeup: the blocked reader is notified because of this
  // delivery, which the span records.
  if (wake_span >= 0) {
    if (obs::Observer* o = stack_->observer()) {
      o->span_stamp(wake_span, obs::Stage::wakeup, stack_->loop().now());
    }
  }
  rx_waiter_->notify();
}

void TransportSocket::wake_writer() {
  if (tx_was_full_ && tx_waiter_ != nullptr &&
      send_space() >=
          std::min<Bytes>(Stack::kSndBuf / 4, 256 * kKiB)) {
    tx_was_full_ = false;
    tx_waiter_->notify();
  }
}

void TransportSocket::release_pages(Core& core, const Skb& skb) {
  stack_->allocator().release(core, skb.fragments);
}

void TransportSocket::collect_held_pages(std::vector<const Page*>& held) const {
  for (const Skb& skb : rq_) {
    for (const Fragment& fragment : skb.fragments) {
      held.push_back(fragment.page);
    }
  }
  collect_protocol_pages(held);
}

// --------------------------------------------------------------------------
// Per-skb protocol charges
// --------------------------------------------------------------------------

void TransportSocket::charge_tx_skb(Core& core, std::int64_t seq, Bytes len,
                                    bool retransmit) {
  const StackConfig& config = stack_->config();
  const CostModel& cost = core.cost();
  const int frames = Gso::segment_count(len, config.mtu_payload());
  if (retransmit) {
    stack_->tracer().record(stack_->loop().now(), TraceKind::retransmit,
                            flow_, seq, len);
    core.charge(CpuCategory::tcpip, cost.tcpip_retransmit * frames);
    retransmits_ += static_cast<std::uint64_t>(frames);
    stack_->stats().retransmits += static_cast<std::uint64_t>(frames);
  } else {
    core.charge(CpuCategory::skb_mgmt, cost.skb_alloc);
    core.charge(CpuCategory::tcpip,
                cost.tcpip_tx_per_skb +
                    static_cast<Cycles>(cost.tcpip_cyc_per_byte *
                                        static_cast<double>(len)));
    core.charge(CpuCategory::netdev, cost.netdev_tx_per_skb);
    Gso::charge(core, config.segmentation(), frames);
    stack_->iommu().charge_map(core, static_cast<double>(len) / kPageBytes);
  }
  core.charge(CpuCategory::netdev, cost.driver_tx_per_skb);
}

void TransportSocket::charge_rx_skb(Core& core, const Skb& skb) {
  const CostModel& cost = core.cost();
  core.charge(CpuCategory::tcpip,
              cost.tcpip_rx_per_skb +
                  static_cast<Cycles>(cost.tcpip_cyc_per_byte *
                                      static_cast<double>(skb.len)));
  lock(core);
  stack_->tracer().record(stack_->loop().now(), TraceKind::skb_deliver,
                          flow_, skb.seq, skb.len);
  if (skb.obs_span >= 0) {
    if (obs::Observer* o = stack_->observer()) {
      o->span_stamp(skb.obs_span, obs::Stage::tcpip, stack_->loop().now());
    }
  }
}

// --------------------------------------------------------------------------
// Application send path
// --------------------------------------------------------------------------

Bytes TransportSocket::send(Core& core, Bytes bytes) {
  require(core.id() == app_core_, "send() must run on the app core");
  require(bytes > 0, "send of zero bytes");
  if (dead()) return 0;
  core.charge(CpuCategory::etc, core.cost().syscall_overhead);
  lock(core);

  const Bytes accept = std::min(bytes, send_space());
  if (accept < bytes) tx_was_full_ = true;
  if (accept == 0) return 0;
  accepted_from_app_ += accept;
  write(core, accept);
  return accept;
}

void TransportSocket::copy_from_user(Core& core, Bytes len, PageList& pages) {
  const CostModel& cost = core.cost();
  if (stack_->config().tx_zerocopy) {
    // MSG_ZEROCOPY (§4): the user pages are pinned instead — no copy, no
    // kernel pages, just a pin per page + a completion notification.
    const auto pinned =
        static_cast<Cycles>((len + kPageBytes - 1) / kPageBytes);
    core.charge(CpuCategory::memory, pinned * cost.zc_tx_pin_per_page);
    core.charge(CpuCategory::etc, cost.zc_tx_completion);
    return;
  }
  // Copy into freshly allocated kernel pages.  Pages come LIFO from the
  // pageset, so a recently freed (still cached) page is cheap to fill; a
  // cold page pays the write-allocate penalty.
  LlcModel& llc = stack_->llc(core.numa_node());
  HostStats& stats = stack_->stats();
  const int count = static_cast<int>((len + kPageBytes - 1) / kPageBytes);
  double copy_cycles = 0.0;
  for (int i = 0; i < count; ++i) {
    Page* page = stack_->allocator().alloc(core);
    page->refs = 1;
    const Bytes page_bytes = std::min<Bytes>(kPageBytes, len - i * kPageBytes);
    const bool resident = llc.insert(page->id);
    if (resident) {
      stats.sender_copy.hit();
    } else {
      stats.sender_copy.miss();
    }
    copy_cycles += static_cast<double>(page_bytes) *
                   (cost.copy_cyc_per_byte_hit +
                    (resident ? 0.0 : cost.copy_write_miss_extra));
    pages.push_back(page);
  }
  core.charge(CpuCategory::data_copy, static_cast<Cycles>(copy_cycles));
}

// --------------------------------------------------------------------------
// Application receive path
// --------------------------------------------------------------------------

Bytes TransportSocket::recv(Core& core, Bytes max_bytes) {
  require(core.id() == app_core_, "recv() must run on the app core");
  if (dead()) return 0;
  const CostModel& cost = core.cost();
  core.charge(CpuCategory::etc, cost.syscall_overhead);
  lock(core);

  HostStats& stats = stack_->stats();
  Bytes copied = 0;
  while (copied < max_bytes && !rq_.empty()) {
    Skb skb = std::move(rq_.front());
    rq_.pop_front();
    rq_bytes_ -= skb.len;

    stats.napi_to_copy.record(stack_->loop().now() - skb.napi_at);
    stack_->tracer().record(stack_->loop().now(), TraceKind::data_copy,
                            flow_, skb.seq, skb.len);
    if (skb.obs_span >= 0) {
      if (obs::Observer* o = stack_->observer()) {
        o->span_stamp(skb.obs_span, obs::Stage::copy, stack_->loop().now());
        o->span_complete(skb.obs_span);
      }
    }

    bool any_remote = false;
    if (stack_->config().rx_zerocopy) {
      // TCP-mmap reception (§4): the kernel remaps the DMA'd pages into
      // the application's address space instead of copying — per-page
      // VMA work replaces per-byte copy cycles.
      const auto pages = static_cast<Cycles>((skb.len + kPageBytes - 1) /
                                             kPageBytes);
      core.charge(CpuCategory::memory, pages * cost.zc_rx_remap_per_page);
      for (const Fragment& fragment : skb.fragments) {
        any_remote = any_remote ||
                     fragment.page->numa_node != core.numa_node();
      }
    } else {
      // Kernel->user data copy, page by page.  Local pages hit or miss
      // the LLC; remote-NUMA pages always cross the interconnect (the
      // paper's fig. 4: DCA cannot target a NIC-remote node's LLC).
      Bytes frag_total = 0;
      for (const Fragment& fragment : skb.fragments) {
        frag_total += fragment.bytes;
      }
      const double payload_scale =
          frag_total > 0
              ? static_cast<double>(skb.len) / static_cast<double>(frag_total)
              : 0.0;
      double copy_cycles = 0.0;
      for (const Fragment& fragment : skb.fragments) {
        const double bytes =
            static_cast<double>(fragment.bytes) * payload_scale;
        Page* page = fragment.page;
        if (page->numa_node == core.numa_node()) {
          const bool hit =
              stack_->llc(core.numa_node()).touch_read(page->id);
          if (hit) {
            stats.copy_reads.hit();
          } else {
            stats.copy_reads.miss();
          }
          copy_cycles += bytes * (hit ? cost.copy_cyc_per_byte_hit
                                      : cost.copy_cyc_per_byte_miss);
        } else {
          any_remote = true;
          stats.copy_reads.miss();
          copy_cycles += bytes * cost.copy_cyc_per_byte_miss *
                         cost.copy_remote_numa_factor;
        }
      }
      core.charge(CpuCategory::data_copy, static_cast<Cycles>(copy_cycles));
    }

    core.charge(CpuCategory::skb_mgmt,
                cost.skb_free + (any_remote ? cost.skb_free_remote_extra : 0));
    release_pages(core, skb);
    copied += skb.len;
  }
  delivered_to_app_ += copied;
  on_read(core, copied);
  return copied;
}

}  // namespace hostsim
