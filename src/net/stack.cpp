#include "net/stack.h"

#include <utility>

#include "net/homa_transport.h"
#include "net/tcp_socket.h"
#include "net/tcp_transport.h"
#include "obs/observer.h"
#include "sim/contract.h"

namespace hostsim {
namespace {

/// Frames one NAPI poll may consume before yielding (net.core's
/// dev_weight-style budget, counted in GRO segments).
constexpr int kNapiBudget = 300;

}  // namespace

Stack::Stack(EventLoop& loop, const StackConfig& config, int host_id,
             std::size_t trace_capacity, const NumaTopology& topo,
             std::vector<Core*> cores, std::vector<LlcModel*> llcs,
             PageAllocator& allocator, Iommu& iommu, Nic& nic)
    : loop_(&loop),
      config_(config),
      topo_(topo),
      cores_(std::move(cores)),
      llcs_(std::move(llcs)),
      allocator_(&allocator),
      iommu_(&iommu),
      nic_(&nic),
      tracer_(trace_capacity, host_id) {
  switch (config_.transport.kind) {
    case TransportKind::tcp:
      transport_ = std::make_unique<TcpTransport>(*this);
      break;
    case TransportKind::homa:
      transport_ = std::make_unique<HomaTransport>(*this);
      break;
  }
  nic_->set_rx_handler(
      [this](Core& core, int queue) { napi_poll(core, queue); });
}

Stack::~Stack() = default;

TransportSocket& Stack::create_socket(int flow, int app_core) {
  require(sockets_.find(flow) == sockets_.end(), "flow already has a socket");
  require(app_core >= 0 && app_core < num_cores(), "app core out of range");
  auto [it, inserted] =
      sockets_.emplace(flow, transport_->make_socket(flow, app_core));
  return *it->second;
}

TransportSocket& Stack::socket(int flow) {
  auto it = sockets_.find(flow);
  require(it != sockets_.end(), "no socket for flow");
  return *it->second;
}

TcpSocket& Stack::tcp_socket(int flow) {
  require(config_.transport.kind == TransportKind::tcp,
          "tcp_socket() requires the TCP transport");
  return static_cast<TcpSocket&>(socket(flow));
}

TransportSocket* Stack::find_socket(int flow) {
  auto it = sockets_.find(flow);
  return it == sockets_.end() ? nullptr : it->second.get();
}

const TransportSocket* Stack::find_socket(int flow) const {
  auto it = sockets_.find(flow);
  return it == sockets_.end() ? nullptr : it->second.get();
}

bool Stack::has_socket(int flow) const {
  return sockets_.find(flow) != sockets_.end();
}

void Stack::destroy_socket(int flow) {
  auto it = sockets_.find(flow);
  require(it != sockets_.end(), "destroying a socket that does not exist");
  require(it->second->dead(), "destroying a live socket");
  require(!config_.receiver_driven,
          "socket destruction unsupported in receiver-driven mode");
  retire(it);
  transport_->on_socket_destroyed(flow);
}

std::unique_ptr<TransportSocket> Stack::retire(SocketTable::iterator it) {
  retired_delivered_ += it->second->delivered_to_app();
  std::unique_ptr<TransportSocket> retired = std::move(it->second);
  sockets_.erase(it);
  return retired;
}

void Stack::send_rst(int flow) {
  Frame rst;
  rst.flow = flow;
  rst.is_rst = true;
  rst.is_ack = true;  // header-only: rides the driver copybreak path
  nic_->transmit(rst);
}

void Stack::send_syn(int flow) {
  Frame syn;
  syn.flow = flow;
  syn.is_syn = true;
  nic_->transmit(syn);
  ++churn_.syns_sent;
}

void Stack::send_syn_ack(int flow) {
  Frame syn_ack;
  syn_ack.flow = flow;
  syn_ack.is_syn = true;
  syn_ack.is_ack = true;  // header-only: rides the driver copybreak path
  nic_->transmit(syn_ack);
}

void Stack::note_socket_table() {
  const std::uint64_t occupancy =
      static_cast<std::uint64_t>(sockets_.size() + time_wait_.size());
  if (occupancy > churn_.socket_table_peak) {
    churn_.socket_table_peak = occupancy;
  }
}

void Stack::listen(int app_core, int backlog, AcceptFn on_accept) {
  require(!listener_.has_value(), "host already has a listener");
  require(app_core >= 0 && app_core < num_cores(), "app core out of range");
  require(backlog > 0, "listen backlog must be positive");
  listener_ = Listener{app_core, backlog, 0, std::move(on_accept)};
}

void Stack::connect(int flow, Nanos retry_after, int max_retries,
                    ConnectFn done) {
  require(retry_after > 0, "SYN retry timeout must be positive");
  require(max_retries >= 0, "SYN retry budget must be >= 0");
  TransportSocket& client = socket(flow);  // created by the caller beforehand
  require(connects_.find(flow) == connects_.end(),
          "flow already has a pending connect");
  PendingConnect& pending = connects_[flow];
  pending.retry = std::make_unique<Timer>(
      *loop_, [this, flow] { retry_connect(flow); });
  pending.retry_after = retry_after;
  pending.max_retries = max_retries;
  pending.done = std::move(done);
  // The connect syscall runs on the client's core; registration above
  // is synchronous so a SYN-ACK can never race it.
  cores_[static_cast<std::size_t>(client.app_core())]->post(
      connect_ctx_, [this, flow](Core& core) {
        auto it = connects_.find(flow);
        if (it == connects_.end()) return;
        core.charge(CpuCategory::etc, core.cost().syscall_overhead);
        core.charge(CpuCategory::tcpip, core.cost().tcpip_ack_tx);
        ++it->second.tries;
        send_syn(flow);
        it->second.retry->arm_after(it->second.retry_after);
      });
}

void Stack::retry_connect(int flow) {
  // Timer context: re-enter task context on the client's core so the
  // retransmit (or the failure callback) charges and runs there.
  TransportSocket* client = find_socket(flow);
  if (client == nullptr) {
    connects_.erase(flow);
    return;
  }
  cores_[static_cast<std::size_t>(client->app_core())]->post(
      connect_ctx_, [this, flow](Core& core) {
        auto it = connects_.find(flow);
        if (it == connects_.end()) return;  // SYN-ACK won the race
        PendingConnect& pending = it->second;
        if (pending.tries > pending.max_retries) {
          ++churn_.connect_failures;
          ConnectFn done = std::move(pending.done);
          connects_.erase(it);
          if (done) done(false);
          return;
        }
        core.charge(CpuCategory::tcpip, core.cost().tcpip_ack_tx);
        ++pending.tries;
        ++churn_.syn_retries;
        send_syn(flow);
        // Exponential backoff, Linux-style doubling per retry.
        const int shift = pending.tries - 1 < 6 ? pending.tries - 1 : 6;
        pending.retry->arm_after(pending.retry_after << shift);
      });
}

void Stack::handle_syn(Core& core, const Frame& frame) {
  ++churn_.syns_received;
  core.charge(CpuCategory::tcpip, core.cost().tcpip_ack_rx);
  if (!listener_.has_value()) {
    send_rst(frame.flow);  // no listener: connection refused
    return;
  }
  if (has_socket(frame.flow)) {
    // Duplicate SYN (our SYN-ACK or the SYN retry crossed): idempotent
    // resend, the connection state is unchanged.
    send_syn_ack(frame.flow);
    return;
  }
  Listener& listener = *listener_;
  if (listener.pending >= listener.backlog) {
    // Accept-queue overflow: the SYN is silently dropped, exactly like
    // a full listen backlog without syncookies — the client's SYN
    // retry timer is the recovery path.
    ++churn_.listen_overflows;
    return;
  }
  create_socket(frame.flow, listener.app_core);
  note_socket_table();
  ++listener.pending;
  core.charge(CpuCategory::tcpip, core.cost().tcpip_ack_tx);
  send_syn_ack(frame.flow);
  // Accept runs as a task on the listener core: the app pays the
  // syscall there and binds its handler.  Data arriving before the
  // accept task queues in the socket's receive queue, as in Linux.
  cores_[static_cast<std::size_t>(listener.app_core)]->post(
      connect_ctx_, [this, flow = frame.flow](Core& accept_core) {
        require(listener_.has_value(), "listener vanished before accept");
        --listener_->pending;
        TransportSocket* accepted = find_socket(flow);
        if (accepted == nullptr || accepted->dead()) return;
        accept_core.charge(CpuCategory::etc,
                           accept_core.cost().syscall_overhead);
        ++churn_.accepts;
        if (listener_->on_accept) listener_->on_accept(accept_core, *accepted);
      });
}

void Stack::handle_syn_ack(Core& core, const Frame& frame) {
  auto it = connects_.find(frame.flow);
  if (it == connects_.end()) return;  // duplicate SYN-ACK; established
  core.charge(CpuCategory::tcpip, core.cost().tcpip_ack_rx);
  ConnectFn done = std::move(it->second.done);
  connects_.erase(it);  // destroys the retry timer (auto-cancel)
  ++churn_.connects_established;
  if (done) done(true);
}

void Stack::close(Core& core, int flow, Nanos time_wait) {
  require(time_wait >= 0, "TIME_WAIT duration must be >= 0");
  auto it = sockets_.find(flow);
  require(it != sockets_.end(), "closing a flow with no socket");
  TransportSocket& closing = *it->second;
  require(!closing.dead(), "closing a dead socket (destroy it instead)");
  require(closing.send_queue_empty() && closing.readable() == 0 &&
              closing.ofo_bytes() == 0,
          "close requires a quiescent connection");
  core.charge(CpuCategory::etc, core.cost().syscall_overhead);
  core.charge(CpuCategory::tcpip, core.cost().tcpip_ack_tx);
  Frame fin;
  fin.flow = flow;
  fin.is_fin = true;
  fin.is_ack = true;  // header-only: rides the driver copybreak path
  nic_->transmit(fin);
  ++churn_.fins_sent;
  // The quiescent socket holds no pages and no wire state: retire it
  // into TIME_WAIT (an accounting residence — flow ids are never
  // reused, so only table pressure and straggler RSTs remain).
  retire(it);
  time_wait_.emplace_back(flow, loop_->now() + time_wait);
  time_wait_flows_.insert(flow);
  ++churn_.time_wait_entered;
  if (time_wait_.size() > churn_.time_wait_peak) {
    churn_.time_wait_peak = time_wait_.size();
  }
  note_socket_table();
  if (time_wait_reaper_ == nullptr) {
    time_wait_reaper_ =
        std::make_unique<Timer>(*loop_, [this] { reap_time_wait(); });
  }
  if (!time_wait_reaper_->armed()) {
    time_wait_reaper_->arm_at(time_wait_.front().second);
  }
}

void Stack::reap_time_wait() {
  const Nanos now = loop_->now();
  while (!time_wait_.empty() && time_wait_.front().second <= now) {
    time_wait_flows_.erase(time_wait_.front().first);
    time_wait_.pop_front();
    ++churn_.time_wait_reaped;
  }
  if (!time_wait_.empty()) {
    time_wait_reaper_->arm_at(time_wait_.front().second);
  }
}

void Stack::handle_fin(Core& core, int flow) {
  ++churn_.fins_received;
  auto it = sockets_.find(flow);
  if (it == sockets_.end()) return;  // already gone (aborted + destroyed)
  core.charge(CpuCategory::tcpip, core.cost().tcpip_ack_rx);
  TransportSocket& closing = *it->second;
  if (closing.dead()) return;  // disposition already settled by abort()
  if (!closing.send_queue_empty() || closing.readable() > 0 ||
      closing.ofo_bytes() > 0) {
    // FIN against in-flight state (e.g. our last data's ACK was lost):
    // reset, like close() with unread data — abort() releases the
    // pages and reports the error to the app.
    closing.abort(core, SocketError::econnreset);
    return;
  }
  // Graceful passive close: let the app unbind, then retire the socket
  // (no TIME_WAIT on the passive side).
  retire(it)->on_peer_fin(core);
}

void Stack::begin_measurement() { stats_.clear(); }

int Stack::steer_target(const TransportSocket& socket,
                        const Core& irq_core) const {
  switch (config_.steering()) {
    case SteeringMode::arfs:
    case SteeringMode::rss:
      return irq_core.id();  // processing stays on the IRQ core
    case SteeringMode::rfs:
      return socket.app_core();
    case SteeringMode::rps: {
      // Hash the flow to a (deterministic) core, Table-2 style.
      auto x = (static_cast<std::uint64_t>(socket.flow()) + 0x243F6A8885A3ull) *
               0x9E3779B97F4A7C15ull;
      x ^= x >> 29;
      x *= 0xBF58476D1CE4E5B9ull;
      x ^= x >> 32;
      return static_cast<int>(x % static_cast<std::uint64_t>(num_cores()));
    }
  }
  return irq_core.id();
}

std::vector<int> Stack::flow_ids() const {
  std::vector<int> ids;
  ids.reserve(sockets_.size());
  for (const auto& [flow, socket] : sockets_) ids.push_back(flow);
  return ids;
}

Bytes Stack::total_delivered_to_app() const {
  Bytes total = retired_delivered_;
  for (const auto& [flow, socket] : sockets_) {
    total += socket->delivered_to_app();
  }
  return total;
}

void Stack::collect_held_pages(std::vector<const Page*>& held) const {
  for (const auto& [flow, socket] : sockets_) {
    socket->collect_held_pages(held);
  }
  transport_->collect_held_pages(held);
}

Skb Stack::data_skb(Core& core, Nic::PolledFrame& polled) {
  core.charge(CpuCategory::skb_mgmt, core.cost().skb_alloc);
  Skb skb;
  skb.flow = polled.frame.flow;
  skb.seq = polled.frame.seq;
  skb.len = polled.frame.payload;
  skb.fragments = std::move(polled.fragments);
  skb.segments = polled.segments;
  skb.napi_at = loop_->now();
  skb.sent_at = polled.frame.sent_at;
  skb.ecn = polled.frame.ecn;
  skb.obs_span = polled.frame.obs_span;
  if (obs_ != nullptr && skb.obs_span >= 0) {
    obs_->span_stamp(skb.obs_span, obs::Stage::gro, loop_->now());
  }
  if (config_.gro) {
    core.charge(CpuCategory::netdev, core.cost().gro_per_segment);
  }
  return skb;
}

void Stack::napi_poll(Core& core, int queue) {
  const CostModel& cost = core.cost();
  core.charge(CpuCategory::netdev, cost.napi_poll_overhead);

  // FINs observed this poll; processed only after the transport's flush
  // (GRO may still be merging the connection's final data) so that data
  // is delivered before the passive close runs.
  std::vector<int> fin_flows;

  int budget = kNapiBudget;
  while (budget > 0) {
    auto polled = nic_->poll_one(core, queue);
    if (!polled.has_value()) break;
    budget -= polled->segments;
    core.charge(CpuCategory::netdev, cost.netdev_rx_per_frame);

    if (polled->frame.corrupt) {
      // Checksum validation failed: the frame burned a descriptor, DMA
      // bandwidth, and driver cycles, but the protocol never sees it —
      // it will be repaired like any other loss.  Distinct from wire
      // loss in that the receiver pays for the frame before discarding.
      core.charge(CpuCategory::skb_mgmt, cost.skb_alloc + cost.skb_free);
      allocator_->release(core, polled->fragments);
      ++stats_.rx_csum_drops;
      continue;
    }

    if (polled->frame.is_syn || polled->frame.is_ack) {
      // Header-only frame (SYN, FIN, ACK, RST, Homa control; each sender
      // sets one of the two flags): the driver's copybreak path builds a
      // small skb inline and frees it on the spot, no page-backed
      // fragments.
      core.charge(CpuCategory::skb_mgmt, cost.skb_alloc / 3);
    }

    if (polled->frame.is_syn) {
      // Handshake frames are handled in the stack (connection lifecycle
      // is transport-independent) and before ACK processing — a SYN-ACK
      // must not reach the client socket's ACK machinery.
      if (polled->frame.is_ack) {
        handle_syn_ack(core, polled->frame);
      } else {
        handle_syn(core, polled->frame);
      }
      allocator_->release(core, polled->fragments);
      continue;
    }

    if (polled->frame.is_ack && polled->frame.is_fin) {
      // FINs are stack-owned too.
      fin_flows.push_back(polled->frame.flow);
      allocator_->release(core, polled->fragments);
      continue;
    }

    // Everything else — data, ACK/RST, transport control frames — is the
    // protocol implementation's to consume.
    transport_->rx_frame(core, queue, std::move(*polled));
  }

  transport_->rx_flush(core, queue);
  for (int flow : fin_flows) {
    handle_fin(core, flow);
  }
  nic_->napi_complete(core, queue);
}

}  // namespace hostsim
