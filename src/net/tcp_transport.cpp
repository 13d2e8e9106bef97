#include "net/tcp_transport.h"

#include <utility>

#include "net/stack.h"
#include "net/tcp_socket.h"
#include "sim/contract.h"

namespace hostsim {

TcpTransport::TcpTransport(Stack& stack) : stack_(&stack) {
  gros_.reserve(stack_->cores_.size());
  for (std::size_t i = 0; i < stack_->cores_.size(); ++i) {
    gros_.emplace_back(stack_->config_.gro, Stack::kMaxSkbBytes);
  }
}

TcpTransport::~TcpTransport() = default;

std::unique_ptr<TransportSocket> TcpTransport::make_socket(int flow,
                                                           int app_core) {
  auto socket = std::make_unique<TcpSocket>(*stack_, flow, app_core);
  if (stack_->config_.receiver_driven) {
    if (grants_ == nullptr) grants_ = std::make_unique<GrantScheduler>();
    socket->set_receiver_driven(*grants_);
  }
  return socket;
}

void TcpTransport::deliver(Core& core, Skb&& skb) {
  if (stack_->leak_next_skb_ && !skb.fragments.empty()) {
    // Deliberate leak (test hook): forget the skb without releasing
    // its page references, so the leak sweep has something to find.
    stack_->leak_next_skb_ = false;
    return;
  }
  stack_->stats_.skb_sizes.record(skb);
  auto it = stack_->sockets_.find(skb.flow);
  if (it == stack_->sockets_.end() || it->second->dead()) {
    // Unknown or terminally failed flow (torn down by a fault or a
    // reconnect): drop the data and answer with an RST so the sender
    // learns the connection is gone instead of retransmitting into a
    // void until its own timeout fires.
    const int flow = skb.flow;
    stack_->allocator_->release(core, skb.fragments);
    stack_->send_rst(flow);
    return;
  }
  TcpSocket* socket = static_cast<TcpSocket*>(it->second.get());
  const int target = stack_->steer_target(*socket, core);
  if (target == core.id()) {
    socket->rx_deliver(core, std::move(skb));
    return;
  }
  // RPS/RFS: protocol processing is requeued to the target core's
  // backlog via an inter-processor kick; the cycles of TCP processing
  // land there, not on the IRQ core.  The skb is parked in a stack-
  // visible table while it crosses cores (rather than captured in the
  // closure) so in-flight requeues stay accountable to the leak sweep.
  // The requeued task re-resolves the flow: the socket can be aborted
  // and destroyed while the skb is crossing cores.
  core.charge(CpuCategory::etc, core.cost().rps_ipi);
  const SlotPool<Skb>::Slot slot = requeue_park_.acquire(std::move(skb));
  core.defer([this, target, slot] {
    stack_->cores_[static_cast<std::size_t>(target)]->post(
        softirq_requeue_, [this, slot](Core& remote) {
          Skb queued = std::move(requeue_park_[slot]);
          requeue_park_.release(slot);
          if (TransportSocket* live = stack_->find_socket(queued.flow)) {
            static_cast<TcpSocket*>(live)->rx_deliver(remote,
                                                      std::move(queued));
            return;
          }
          stack_->allocator_->release(remote, queued.fragments);
        });
  });
}

void TcpTransport::rx_frame(Core& core, int queue, Nic::PolledFrame polled) {
  const CostModel& cost = core.cost();

  if (polled.frame.is_ack) {
    // Copybreak fast path (charged by Stack::napi_poll).  RSTs ride this
    // path too.
    auto it = stack_->sockets_.find(polled.frame.flow);
    if (it != stack_->sockets_.end()) {
      TcpSocket* socket = static_cast<TcpSocket*>(it->second.get());
      const int target = stack_->steer_target(*socket, core);
      const bool is_rst = polled.frame.is_rst;
      if (target == core.id()) {
        if (is_rst) {
          socket->on_rst(core);
        } else {
          socket->process_ack(core, polled.frame);
        }
      } else {
        // Re-resolve the flow on the target core: the socket can be
        // aborted and destroyed while the frame crosses cores.
        core.charge(CpuCategory::etc, cost.rps_ipi);
        const Frame frame = polled.frame;
        core.defer([this, target, frame, is_rst] {
          stack_->cores_[static_cast<std::size_t>(target)]->post(
              softirq_requeue_, [this, frame, is_rst](Core& remote) {
                TransportSocket* live = stack_->find_socket(frame.flow);
                if (live == nullptr) return;
                if (is_rst) {
                  live->on_rst(remote);
                } else {
                  static_cast<TcpSocket*>(live)->process_ack(remote, frame);
                }
              });
        });
      }
    }
    stack_->allocator_->release(core, polled.fragments);
    return;
  }
  Gro& gro = gros_.at(static_cast<std::size_t>(queue));
  if (std::optional<Skb> merged = gro.feed(stack_->data_skb(core, polled))) {
    deliver(core, std::move(*merged));
  }
}

void TcpTransport::rx_flush(Core& core, int queue) {
  for (Skb& merged : gros_.at(static_cast<std::size_t>(queue)).flush()) {
    deliver(core, std::move(merged));
  }
}

void TcpTransport::collect_held_pages(std::vector<const Page*>& held) const {
  requeue_park_.for_each([&held](const Skb& skb) {
    for (const Fragment& fragment : skb.fragments) {
      held.push_back(fragment.page);
    }
  });
}

}  // namespace hostsim
