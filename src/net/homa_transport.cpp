#include "net/homa_transport.h"

#include <algorithm>
#include <utility>

#include "net/grant_scheduler.h"
#include "net/stack.h"
#include "sim/contract.h"

namespace hostsim {
namespace {

/// Receiver-side overload guard: while this many unread bytes sit in
/// completed-message queues, the receiver withholds new grants (the
/// receiver-driven analogue of a closed advertised window).  Unlike TCP
/// this bounds the *application's* backlog, not per-connection kernel
/// memory — reassembly state stays capped by homa_max_active *
/// kGrantBytes regardless.
constexpr Bytes kRcvBuf = 1024 * kKiB;

/// Sender-side ack clock: only the oldest this-many unacked messages may
/// transmit their blind unscheduled windows; younger messages wait
/// buffered.  Without it a message flood emits unscheduled bytes with no
/// feedback at all and softirq load starves the receiving application
/// (kernel contexts preempt user contexts per core).
constexpr std::size_t kMaxTxMsgs = 4;

/// Receiver-side stall detector: an active message with missing bytes
/// and no arrivals for this long draws a RESEND request.
constexpr Nanos kResendInterval = 1 * kMillisecond;

/// Sender restart interval: deliberately behind the receiver's RESEND
/// scan so receiver-driven repair wins whenever the receiver knows the
/// message exists; the restart only covers total-blackout loss.
constexpr Nanos kRestartInterval = 2 * kResendInterval;

/// Consecutive sender restarts with no progress before the message's
/// socket is declared dead with ETIMEDOUT (like tcp_retries2).
constexpr int kMaxResends = 8;

}  // namespace

// ==========================================================================
// HomaSocket
// ==========================================================================

HomaSocket::HomaSocket(Stack& stack, HomaTransport& transport, int flow,
                       int app_core)
    : TransportSocket(stack, flow, app_core),
      transport_(&transport),
      restart_timer_(stack.loop(), [this] { on_restart_fired(); }),
      resend_timer_(stack.loop(), [this] { on_resend_scan_fired(); }) {}

HomaSocket::~HomaSocket() = default;

void HomaSocket::sample_rtt(Nanos echo_ts) {
  if (echo_ts < 0) return;
  const Nanos rtt = stack_->loop().now() - echo_ts;
  srtt_ = srtt_ == 0 ? rtt : (7 * srtt_ + rtt) / 8;
}

void HomaSocket::note_tx_activity() {
  last_tx_activity_ = stack_->loop().now();
  consecutive_restarts_ = 0;
}

// --------------------------------------------------------------------------
// Socket-core hooks
// --------------------------------------------------------------------------

void HomaSocket::release_tx(Core& core) {
  restart_timer_.cancel();
  restart_task_pending_ = false;
  resend_timer_.cancel();
  for (TxMessage& msg : tx_messages_) {
    for (Page* page : msg.pages) stack_->allocator().release(core, page);
  }
  tx_messages_.clear();
  tx_buffered_ = 0;
}

void HomaSocket::release_rx(Core& core) {
  for (auto& [id, msg] : rx_messages_) {
    for (auto& [offset, skb] : msg.frags) release_pages(core, skb);
  }
  rx_messages_.clear();
  reassembly_bytes_ = 0;
  transport_->sched_purge(core, *this);
}

void HomaSocket::collect_protocol_pages(std::vector<const Page*>& held) const {
  for (const TxMessage& msg : tx_messages_) {
    for (const Page* page : msg.pages) held.push_back(page);
  }
  for (const auto& [id, msg] : rx_messages_) {
    for (const auto& [offset, skb] : msg.frags) {
      for (const Fragment& fragment : skb.fragments) {
        held.push_back(fragment.page);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Application send path (message framing: one send() = one message)
// --------------------------------------------------------------------------

Bytes HomaSocket::send_space() const {
  return Stack::kSndBuf - tx_buffered_;
}

void HomaSocket::write(Core& core, Bytes accept) {
  TxMessage msg;
  msg.id = next_tx_msg_id_++;
  msg.len = accept;
  msg.granted = std::min<Bytes>(accept, kUnscheduledBytes);
  copy_from_user(core, accept, msg.pages);  // one user copy per message
  tx_messages_.push_back(std::move(msg));
  tx_buffered_ += accept;
  tx_written_ += accept;
  // Ack clock: only the oldest kMaxTxMsgs messages transmit; younger
  // ones wait buffered until MSG_ACKs retire their elders.
  if (tx_messages_.size() <= kMaxTxMsgs) {
    transmit_pending(core, tx_messages_.back());
  }
  note_tx_activity();
  arm_restart();
}

void HomaSocket::transmit_pending(Core& core, TxMessage& msg) {
  const Bytes limit = std::min(msg.granted, msg.len);
  while (msg.sent < limit) {
    const Bytes chunk =
        std::min<Bytes>(Stack::kMaxSkbBytes, limit - msg.sent);
    emit_range(core, msg, msg.sent, msg.sent + chunk, /*retransmit=*/false);
    msg.sent += chunk;
    tx_sent_ += chunk;
  }
}

void HomaSocket::emit_range(Core& core, const TxMessage& msg, Bytes from,
                            Bytes to, bool retransmit) {
  charge_tx_skb(core, from, to - from, retransmit);
  const Bytes mss = stack_->config().mtu_payload();
  const Nanos now = stack_->loop().now();
  Bytes offset = from;
  while (offset < to) {
    Frame frame;
    frame.flow = flow();
    frame.seq = offset;
    frame.payload = std::min<Bytes>(to - offset, mss);
    frame.msg_id = msg.id;
    frame.msg_len = msg.len;
    frame.sent_at = now;
    frame.echo_ts = now;
    offset += frame.payload;
    stack_->nic().transmit(frame);
  }
}

void HomaSocket::arm_restart() {
  if (restart_timer_.armed() || tx_messages_.empty()) return;
  restart_timer_.arm_after(kRestartInterval);
}

void HomaSocket::on_restart_fired() {
  if (dead() || tx_messages_.empty()) return;
  restart_task_pending_ = true;
  stack_->core(app_core()).post(timer_ctx_, [this](Core& core) {
    restart_task_pending_ = false;
    if (dead() || tx_messages_.empty()) return;
    if (stack_->loop().now() - last_tx_activity_ < kRestartInterval) {
      arm_restart();
      return;
    }
    // A whole interval of silence: either every unscheduled frame of the
    // oldest message was lost (the receiver cannot RESEND what it never
    // saw) or the peer is gone.
    if (++consecutive_restarts_ > kMaxResends) {
      abort(core, SocketError::etimedout);
      return;
    }
    TxMessage& msg = tx_messages_.front();
    const Bytes window = std::min({msg.sent, msg.len, kUnscheduledBytes});
    Bytes offset = 0;
    while (offset < window) {
      const Bytes chunk =
          std::min<Bytes>(Stack::kMaxSkbBytes, window - offset);
      emit_range(core, msg, offset, offset + chunk, /*retransmit=*/true);
      offset += chunk;
    }
    arm_restart();
  });
}

// --------------------------------------------------------------------------
// Sender-side control frames
// --------------------------------------------------------------------------

void HomaSocket::handle_grant(Core& core, const Frame& frame) {
  core.charge(CpuCategory::tcpip, core.cost().tcpip_ack_rx);
  lock(core);
  ++stack_->stats().acks_received;
  sample_rtt(frame.echo_ts);
  for (TxMessage& msg : tx_messages_) {
    if (msg.id != frame.msg_id) continue;
    const Bytes edge = std::min<Bytes>(msg.len, frame.ack_seq);
    if (edge > msg.granted) {
      msg.granted = edge;
      transmit_pending(core, msg);
    }
    note_tx_activity();
    return;
  }
  // Unknown message: already acked (stale grant crossed the MSG_ACK).
}

void HomaSocket::handle_resend(Core& core, const Frame& frame) {
  core.charge(CpuCategory::tcpip, core.cost().tcpip_ack_rx);
  lock(core);
  for (TxMessage& msg : tx_messages_) {
    if (msg.id != frame.msg_id) continue;
    // The receiver exists and is asking: repair from its lowest missing
    // offset up to everything we were allowed to send.
    const Bytes to = std::min(msg.granted, msg.len);
    Bytes offset = std::min<Bytes>(frame.seq, to);
    while (offset < to) {
      const Bytes chunk =
          std::min<Bytes>(Stack::kMaxSkbBytes, to - offset);
      emit_range(core, msg, offset, offset + chunk, /*retransmit=*/true);
      offset += chunk;
    }
    note_tx_activity();
    return;
  }
}

void HomaSocket::handle_msg_ack(Core& core, const Frame& frame) {
  core.charge(CpuCategory::tcpip, core.cost().tcpip_ack_rx);
  lock(core);
  ++stack_->stats().acks_received;
  sample_rtt(frame.echo_ts);
  for (auto it = tx_messages_.begin(); it != tx_messages_.end(); ++it) {
    if (it->id != frame.msg_id) continue;
    core.charge(CpuCategory::skb_mgmt, core.cost().skb_free);
    stack_->iommu().charge_unmap(
        core, static_cast<double>(it->len) / kPageBytes);
    for (Page* page : it->pages) stack_->allocator().release(core, page);
    tx_acked_ += it->len;
    tx_buffered_ -= it->len;
    notify_tx_progress(it->len, stack_->loop().now());
    tx_messages_.erase(it);
    note_tx_activity();
    if (tx_messages_.empty()) {
      restart_timer_.cancel();
    }
    // The ack clock advanced: start any message that just slid into the
    // transmit window (its unscheduled bytes have been waiting).
    const std::size_t window = std::min(kMaxTxMsgs, tx_messages_.size());
    for (std::size_t i = 0; i < window; ++i) {
      TxMessage& waiting = tx_messages_[i];
      if (waiting.sent < std::min(waiting.granted, waiting.len)) {
        transmit_pending(core, waiting);
      }
    }
    wake_writer();
    return;
  }
}

// --------------------------------------------------------------------------
// Receiver side
// --------------------------------------------------------------------------

void HomaSocket::send_control(Core& core, Frame frame) {
  frame.flow = flow();
  frame.is_ack = true;  // header-only control: copybreak-class frame
  core.charge(CpuCategory::tcpip, core.cost().tcpip_ack_tx);
  ++stack_->stats().acks_sent;
  stack_->nic().transmit(frame);
}

Bytes HomaSocket::rx_remaining(std::int64_t msg_id) const {
  auto it = rx_messages_.find(msg_id);
  if (it == rx_messages_.end()) return 0;
  return it->second.len - it->second.received;
}

void HomaSocket::push_grant(Core& core, std::int64_t msg_id) {
  auto it = rx_messages_.find(msg_id);
  if (it == rx_messages_.end()) return;
  RxMessage& msg = it->second;
  if (rq_bytes() >= kRcvBuf) {
    // The application is not keeping up: stop feeding it.  Stalled
    // senders stay alive off the receiver's periodic RESENDs (each one
    // counts as peer activity for the sender's restart detector), and
    // recv() pumps the scheduler once the backlog drains.
    rx_backpressured_ = true;
    return;
  }
  const Bytes target = std::min<Bytes>(msg.len, msg.received + kGrantBytes);
  if (target <= msg.granted_edge) return;
  msg.granted_edge = target;
  transport_->note_grant();
  stack_->tracer().record(stack_->loop().now(), TraceKind::grant, flow(),
                          target, msg.granted_edge - msg.received);
  Frame grant;
  grant.is_grant = true;
  grant.msg_id = msg_id;
  grant.ack_seq = target;
  send_control(core, grant);
}

void HomaSocket::rx_data(Core& core, std::int64_t msg_id, Bytes msg_len,
                         Skb skb) {
  // Per-batch protocol processing: the transport coalesced contiguous
  // frames of one message within the NAPI poll round.
  charge_rx_skb(core, skb);
  stack_->stats().skb_sizes.record(skb);

  if (rx_completed_.find(msg_id) != rx_completed_.end()) {
    // Late retransmit of a finished message: our MSG_ACK was lost.
    release_pages(core, skb);
    Frame ack;
    ack.msg_id = msg_id;
    ack.ack_seq = msg_len;
    ack.echo_ts = skb.sent_at;
    send_control(core, ack);
    return;
  }

  auto [it, fresh] = rx_messages_.try_emplace(msg_id);
  RxMessage& msg = it->second;
  if (fresh) {
    msg.id = msg_id;
    msg.len = msg_len;
    msg.granted_edge = std::min<Bytes>(msg.len, kUnscheduledBytes);
  }
  msg.last_arrival = stack_->loop().now();

  // Trim against already-held spans (retransmissions overlap arbitrary
  // prefixes; frames are atomic so surviving spans never split a frame).
  std::int64_t seq = skb.seq;
  Bytes len = skb.len;
  auto next = msg.frags.upper_bound(seq);
  if (next != msg.frags.begin()) {
    auto prev = std::prev(next);
    const std::int64_t prev_end = prev->second.end_seq();
    if (prev_end > seq) {
      const Bytes dup = std::min<Bytes>(prev_end - seq, len);
      seq += dup;
      len -= dup;
    }
  }
  if (len > 0 && next != msg.frags.end() && next->first < seq + len) {
    len = next->first - seq;  // tail overlap; later bytes are already held
  }
  if (len <= 0) {
    release_pages(core, skb);
    return;
  }

  skb.flow = flow();
  skb.seq = seq;
  skb.len = len;
  skb.napi_at = stack_->loop().now();
  msg.frags.emplace(seq, std::move(skb));
  msg.received += len;
  reassembly_bytes_ += len;

  if (msg.received == msg.len) {
    complete_rx(core, msg);
    rx_messages_.erase(it);
    return;
  }
  // Incomplete: keep the grant machinery moving and the stall detector
  // armed.
  if (msg.len > kUnscheduledBytes) {
    if (!msg.enrolled) {
      msg.enrolled = true;
      transport_->sched_enroll(core, *this, msg.id);
    } else {
      transport_->sched_progress(core, *this, msg.id);
    }
  }
  if (!resend_timer_.armed()) {
    resend_timer_.arm_after(kResendInterval);
  }
}

void HomaSocket::complete_rx(Core& core, RxMessage& msg) {
  const Nanos last_sent_at =
      msg.frags.empty() ? -1 : msg.frags.rbegin()->second.sent_at;
  std::int32_t wake_span = -1;
  for (auto& [offset, skb] : msg.frags) {
    if (wake_span < 0 && skb.obs_span >= 0) wake_span = skb.obs_span;
    queue_for_app(std::move(skb));
  }
  msg.frags.clear();
  reassembly_bytes_ -= msg.received;
  rx_covered_ += msg.len;
  rx_completed_.insert(msg.id);
  if (msg.enrolled) {
    transport_->sched_retire(core, *this, msg.id);
  }
  Frame ack;
  ack.msg_id = msg.id;
  ack.ack_seq = msg.len;
  ack.echo_ts = last_sent_at;
  send_control(core, ack);
  wake_reader(wake_span);
}

void HomaSocket::on_resend_scan_fired() {
  if (dead() || rx_messages_.empty()) return;
  stack_->core(app_core()).post(timer_ctx_, [this](Core& core) {
    if (dead() || rx_messages_.empty()) return;
    const Nanos now = stack_->loop().now();
    for (auto& [id, msg] : rx_messages_) {
      if (now - msg.last_arrival < kResendInterval) continue;
      // Lowest missing offset: the first gap in the held spans.
      std::int64_t edge = 0;
      for (const auto& [offset, skb] : msg.frags) {
        if (offset > edge) break;
        edge = skb.end_seq();
      }
      Frame resend;
      resend.is_resend = true;
      resend.msg_id = id;
      resend.seq = edge;
      send_control(core, resend);
      // Re-offer the current credit edge as well: a lost GRANT leaves
      // the sender's allowance stale, and a RESEND alone cannot move
      // bytes the sender believes it may not transmit (the sender
      // ignores re-offers at or below its edge, so this is idempotent).
      if (msg.granted_edge > 0) {
        Frame grant;
        grant.is_grant = true;
        grant.msg_id = id;
        grant.ack_seq = msg.granted_edge;
        send_control(core, grant);
      }
      msg.last_arrival = now;  // back off until the repair had a chance
    }
    if (!rx_messages_.empty()) {
      resend_timer_.arm_after(kResendInterval);
    }
  });
}

// --------------------------------------------------------------------------
// Application receive path
// --------------------------------------------------------------------------

void HomaSocket::on_read(Core& core, Bytes /*copied*/) {
  if (rx_backpressured_ && rq_bytes() < kRcvBuf) {
    rx_backpressured_ = false;
    transport_->sched_pump(core, app_core());
  }
}

// --------------------------------------------------------------------------
// Gauges / sweeps
// --------------------------------------------------------------------------

Bytes HomaSocket::cwnd_bytes() const {
  Bytes allowance = 0;
  for (const TxMessage& msg : tx_messages_) {
    allowance += std::min(msg.granted, msg.len);
  }
  return allowance;
}

// --------------------------------------------------------------------------
// Frame dispatch
// --------------------------------------------------------------------------

void HomaSocket::rx_control(Core& core, const Frame& frame) {
  if (frame.is_rst) {
    on_rst(core);
  } else if (frame.is_grant) {
    handle_grant(core, frame);
  } else if (frame.is_resend) {
    handle_resend(core, frame);
  } else {
    handle_msg_ack(core, frame);
  }
}

// ==========================================================================
// HomaTransport
// ==========================================================================

HomaTransport::HomaTransport(Stack& stack) : stack_(&stack) {
  pending_.resize(stack_->cores_.size());
}

HomaTransport::~HomaTransport() = default;

std::unique_ptr<TransportSocket> HomaTransport::make_socket(int flow,
                                                            int app_core) {
  return std::make_unique<HomaSocket>(*stack_, *this, flow, app_core);
}

void HomaTransport::deliver(Core& core, int flow, PendingBatch&& batch) {
  auto* socket = static_cast<HomaSocket*>(stack_->find_socket(flow));
  if (socket == nullptr || socket->dead()) {
    // Unknown or terminally failed flow: drop the data and answer with
    // an RST so the sender learns the connection is gone.
    stack_->allocator_->release(core, batch.skb.fragments);
    stack_->send_rst(flow);
    return;
  }
  socket->rx_data(core, batch.msg_id, batch.msg_len, std::move(batch.skb));
}

void HomaTransport::rx_frame(Core& core, int queue, Nic::PolledFrame polled) {
  const Frame& frame = polled.frame;

  if (frame.is_ack || frame.is_grant || frame.is_resend || frame.is_rst) {
    // Header-only control: copybreak-class skb (charged by
    // Stack::napi_poll), dispatched inline.
    stack_->allocator_->release(core, polled.fragments);
    auto* socket = static_cast<HomaSocket*>(stack_->find_socket(frame.flow));
    if (socket == nullptr || socket->dead()) {
      if (!frame.is_rst) stack_->send_rst(frame.flow);
      return;
    }
    socket->rx_control(core, frame);
    return;
  }

  Skb skb = stack_->data_skb(core, polled);

  // Merge contiguous same-message frames within this poll round; a
  // non-mergeable input flushes the flow's batch in progress.
  auto& pending = pending_.at(static_cast<std::size_t>(queue));
  auto it = pending.find(frame.flow);
  if (it != pending.end()) {
    PendingBatch& batch = it->second;
    if (stack_->config_.gro && batch.msg_id == frame.msg_id &&
        batch.skb.end_seq() == skb.seq &&
        batch.skb.len + skb.len <= Stack::kMaxSkbBytes) {
      batch.skb.len += skb.len;
      batch.skb.segments += skb.segments;
      batch.skb.sent_at = skb.sent_at;
      batch.skb.ecn = batch.skb.ecn || skb.ecn;
      if (batch.skb.obs_span < 0) batch.skb.obs_span = skb.obs_span;
      batch.skb.fragments.append_from(std::move(skb.fragments));
      return;
    }
    PendingBatch done = std::move(batch);
    pending.erase(it);
    deliver(core, frame.flow, std::move(done));
  }
  if (!stack_->config_.gro) {
    deliver(core, frame.flow,
            PendingBatch{frame.msg_id, frame.msg_len, std::move(skb)});
    return;
  }
  pending.emplace(frame.flow,
                  PendingBatch{frame.msg_id, frame.msg_len, std::move(skb)});
}

void HomaTransport::rx_flush(Core& core, int queue) {
  auto& pending = pending_.at(static_cast<std::size_t>(queue));
  while (!pending.empty()) {
    auto it = pending.begin();
    const int flow = it->first;
    PendingBatch batch = std::move(it->second);
    pending.erase(it);
    deliver(core, flow, std::move(batch));
  }
}

void HomaTransport::collect_held_pages(std::vector<const Page*>& held) const {
  for (const auto& queue : pending_) {
    for (const auto& [flow, batch] : queue) {
      for (const Fragment& fragment : batch.skb.fragments) {
        held.push_back(fragment.page);
      }
    }
  }
}

void HomaTransport::on_socket_destroyed(int /*flow*/) {
  // Scheduler references were already purged by abort() — destroying a
  // live socket is rejected by the Stack.
}

void HomaTransport::sched_enroll(Core& core, HomaSocket& socket,
                                 std::int64_t msg_id) {
  CoreSched& sched = sched_[socket.app_core()];
  const int max_active = stack_->config_.transport.homa_max_active;
  if (static_cast<int>(sched.active.size()) < max_active) {
    sched.active.push_back({&socket, msg_id});
    socket.push_grant(core, msg_id);
  } else {
    sched.waiting.push_back({&socket, msg_id});
  }
}

void HomaTransport::sched_progress(Core& core, HomaSocket& socket,
                                   std::int64_t msg_id) {
  CoreSched& sched = sched_[socket.app_core()];
  for (const Entry& entry : sched.active) {
    if (entry.socket == &socket && entry.msg_id == msg_id) {
      socket.push_grant(core, msg_id);
      return;
    }
  }
}

void HomaTransport::sched_retire(Core& core, HomaSocket& socket,
                                 std::int64_t msg_id) {
  CoreSched& sched = sched_[socket.app_core()];
  auto matches = [&](const Entry& entry) {
    return entry.socket == &socket && entry.msg_id == msg_id;
  };
  std::erase_if(sched.active, matches);
  std::erase_if(sched.waiting, matches);
  promote(core, sched);
}

void HomaTransport::sched_pump(Core& core, int app_core) {
  auto it = sched_.find(app_core);
  if (it == sched_.end()) return;
  // push_grant is idempotent (no-op when the credit target is already
  // granted) and re-checks each socket's own backlog.
  for (const Entry& entry : it->second.active) {
    entry.socket->push_grant(core, entry.msg_id);
  }
}

void HomaTransport::sched_purge(Core& core, HomaSocket& socket) {
  auto it = sched_.find(socket.app_core());
  if (it == sched_.end()) return;
  auto matches = [&](const Entry& entry) { return entry.socket == &socket; };
  std::erase_if(it->second.active, matches);
  std::erase_if(it->second.waiting, matches);
  promote(core, it->second);
}

void HomaTransport::promote(Core& core, CoreSched& sched) {
  const int max_active = stack_->config_.transport.homa_max_active;
  while (static_cast<int>(sched.active.size()) < max_active &&
         !sched.waiting.empty()) {
    // SRPT: the waiting message with the fewest remaining bytes wins.
    auto best = sched.waiting.begin();
    Bytes best_remaining = best->socket->rx_remaining(best->msg_id);
    for (auto it = std::next(sched.waiting.begin());
         it != sched.waiting.end(); ++it) {
      const Bytes remaining = it->socket->rx_remaining(it->msg_id);
      if (remaining < best_remaining) {
        best = it;
        best_remaining = remaining;
      }
    }
    const Entry entry = *best;
    sched.waiting.erase(best);
    sched.active.push_back(entry);
    entry.socket->push_grant(core, entry.msg_id);
  }
}

}  // namespace hostsim
