#include "net/tcp_socket.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/contract.h"

namespace hostsim {
namespace {

/// Slack beyond the advertised edge tolerated before dropping (GRO
/// rounding; should essentially never trigger).
constexpr Bytes kRcvOverflowSlack = 256 * kKiB;

/// RTO floor; stands in for TLP/RACK tail repair.
constexpr Nanos kMinRto = 2 * kMillisecond;
constexpr Nanos kMaxRto = 200 * kMillisecond;

/// A delayed ACK goes out at the latest this long after its data.
constexpr Nanos kDelackTimeout = 500 * kMicrosecond;

}  // namespace

TcpSocket::TcpSocket(Stack& stack, int flow, int app_core)
    : TransportSocket(stack, flow, app_core),
      cc_(make_congestion_control(stack.config().cc,
                                  stack.config().mtu_payload())),
      rto_timer_(stack.loop(), [this] { on_rto_fired(); }),
      pacer_timer_(stack.loop(), [this] { pacer_release(); }),
      delack_timer_(stack.loop(), [this] { on_delack_fired(); }) {
  const Bytes fixed = stack.config().tcp_rx_buf;
  rcv_buf_cur_ = fixed > 0 ? fixed : 256 * kKiB;
  rcv_wnd_edge_ = rcv_buf_cur_;
}

// Timer members cancel their pending occurrences on destruction.
TcpSocket::~TcpSocket() = default;

// --------------------------------------------------------------------------
// Socket-core hooks
// --------------------------------------------------------------------------

void TcpSocket::release_tx(Core& core) {
  rto_timer_.cancel();
  rto_task_pending_ = false;
  pacer_timer_.cancel();
  delack_timer_.cancel();
  paced_.clear();
  in_recovery_ = false;
  for (TxChunk& chunk : tx_queue_) {
    for (Page* page : chunk.pages) stack_->allocator().release(core, page);
  }
  tx_queue_.clear();
}

void TcpSocket::release_rx(Core& core) {
  for (const auto& [seq, skb] : ofo_) release_pages(core, skb);
  ofo_.clear();
  ofo_bytes_ = 0;
}

void TcpSocket::collect_protocol_pages(std::vector<const Page*>& held) const {
  for (const TxChunk& chunk : tx_queue_) {
    for (const Page* page : chunk.pages) held.push_back(page);
  }
  for (const auto& [seq, skb] : ofo_) {
    for (const Fragment& fragment : skb.fragments) {
      held.push_back(fragment.page);
    }
  }
}

// --------------------------------------------------------------------------
// Application send path
// --------------------------------------------------------------------------

Bytes TcpSocket::send_space() const {
  return Stack::kSndBuf - (snd_buf_end_ - snd_una_);
}

void TcpSocket::write(Core& core, Bytes accept) {
  // One user copy per TSO chunk, each into its own kernel pages.
  Bytes remaining = accept;
  while (remaining > 0) {
    const Bytes chunk_len = std::min<Bytes>(remaining, Stack::kMaxSkbBytes);
    TxChunk chunk;
    chunk.seq = snd_buf_end_;
    chunk.len = chunk_len;
    copy_from_user(core, chunk_len, chunk.pages);
    tx_queue_.push_back(std::move(chunk));
    snd_buf_end_ += chunk_len;
    remaining -= chunk_len;
  }
  tcp_output(core);
}

void TcpSocket::tcp_output(Core& core) {
  const StackConfig& config = stack_->config();
  const Bytes mss = config.mtu_payload();
  const Bytes unit = config.segmentation() == SegmentationMode::none
                         ? mss
                         : Stack::kMaxSkbBytes;
  for (;;) {
    // SACK-style pipe: data the receiver already holds (below the
    // highest selective acknowledgment) is not in flight, so recovery
    // does not stall the pipe while holes are being repaired.
    const std::int64_t delivered_edge =
        std::clamp(sack_high_, snd_una_, snd_nxt_);
    const std::int64_t cwnd_edge = delivered_edge + cc_->cwnd();
    const std::int64_t window_edge = std::min(cwnd_edge, snd_wnd_edge_);
    const Bytes window_avail = window_edge - snd_nxt_;
    const Bytes data_avail = snd_buf_end_ - snd_nxt_;
    const Bytes len = std::min({unit, window_avail, data_avail});
    if (len <= 0) break;
    // Silly-window avoidance (Nagle-style): while data is in flight and
    // more is buffered, wait for a full MSS of window instead of
    // dribbling sub-MSS segments as every ACK cracks the window open.
    // With nothing outstanding the segment goes out regardless — no ACKs
    // would arrive to reopen the window otherwise.
    if (len < mss && len < data_avail && snd_nxt_ > snd_una_) break;
    emit_chunk(core, snd_nxt_, len, /*retransmit=*/false);
    snd_nxt_ += len;
  }
  // Armed whenever the sender is waiting on the peer: for data in flight
  // this is the retransmission timer, for buffered-but-window-blocked
  // data it doubles as the persist timer (zero-window probes) — without
  // it a lost window-opening ACK would deadlock the connection.
  if (snd_una_ < snd_buf_end_) arm_rto();
}

void TcpSocket::emit_chunk(Core& core, std::int64_t seq, Bytes len,
                           bool retransmit) {
  charge_tx_skb(core, seq, len, retransmit);
  const Bytes mss = stack_->config().mtu_payload();
  const Nanos now = stack_->loop().now();
  Bytes remaining = len;
  std::int64_t frame_seq = seq;
  while (remaining > 0) {
    Frame frame;
    frame.flow = flow();
    frame.seq = frame_seq;
    frame.payload = std::min(remaining, mss);
    frame.sent_at = now;
    frame.echo_ts = now;
    frame_seq += frame.payload;
    remaining -= frame.payload;
    send_frame(core, frame);
  }
}

void TcpSocket::send_frame(Core& core, Frame frame) {
  if (cc_->pacing_gbps() > 0.0) {
    paced_.push_back(frame);
    if (!pacer_timer_.armed()) {
      pacer_next_ = std::max(pacer_next_, stack_->loop().now());
      pacer_timer_.arm_at(pacer_next_);
    }
    return;
  }
  (void)core;
  stack_->nic().transmit(frame);
}

void TcpSocket::pacer_release() {
  // The qdisc pacing timer fires in softirq on the sender core; each
  // release is a thread wakeup (paper fig. 13(b): BBR's extra sched
  // overhead comes from exactly this).
  if (paced_.empty()) return;
  Frame frame = paced_.front();
  paced_.pop_front();
  const double rate = std::max(cc_->pacing_gbps(), 0.5);
  pacer_next_ = stack_->loop().now() +
                serialization_delay(frame.wire_bytes(), rate);
  stack_->core(app_core()).post(timer_ctx_, [this, frame](Core& core) {
    core.charge(CpuCategory::sched, core.cost().pacer_release);
    core.charge(CpuCategory::netdev, core.cost().driver_tx_per_skb / 4);
    stack_->nic().transmit(frame);
  });
  if (!paced_.empty()) pacer_timer_.arm_at(pacer_next_);
}

// --------------------------------------------------------------------------
// Loss recovery
// --------------------------------------------------------------------------


void TcpSocket::arm_rto() {
  if (rto_timer_.armed()) return;
  const Nanos rto =
      std::min<Nanos>(std::max(kMinRto, srtt_ + 4 * rttvar_) * rto_backoff_,
                      kMaxRto);
  rto_timer_.arm_after(rto);
}

void TcpSocket::on_rto_fired() {
  if (dead()) return;
  if (snd_una_ >= snd_buf_end_) return;  // everything acked meanwhile
  rto_backoff_ = std::min<Nanos>(rto_backoff_ * 2, 64);
  ++consecutive_rtos_;
  rto_task_pending_ = true;
  stack_->core(app_core()).post(timer_ctx_, [this](Core& core) {
    rto_task_pending_ = false;
    if (dead()) return;
    if (snd_una_ >= snd_buf_end_) return;
    // Connection-failure threshold: this many RTO expirations with no
    // forward progress (each already at exponentially backed-off, capped
    // spacing) declares the peer unreachable — ETIMEDOUT, like Linux's
    // tcp_retries2 — instead of probing a dark host forever.
    const int threshold = stack_->config().max_consecutive_rtos;
    if (threshold > 0 && consecutive_rtos_ >= threshold) {
      abort(core, SocketError::etimedout);
      return;
    }
    if (snd_una_ == snd_nxt_) {
      // Persist mode: nothing in flight but data buffered, so the peer's
      // advertised window (or a link outage that ate every ACK) is
      // blocking us.  Probe with one segment past the window edge — the
      // receiver accepts it (the window had actually opened) or discards
      // it, but either way its ACK carries the current window and
      // restarts the pipe.  snd_nxt_ does not advance (RFC 9293 persist
      // semantics), so discarded probes never count as data in flight,
      // and the congestion controller is left untouched.
      const Bytes probe =
          std::min<Bytes>(stack_->config().mtu_payload(),
                          snd_buf_end_ - snd_nxt_);
      stack_->tracer().record(stack_->loop().now(), TraceKind::window_probe,
                              flow(), snd_nxt_, probe);
      emit_chunk(core, snd_nxt_, probe, /*retransmit=*/false);
      arm_rto();
      return;
    }
    stack_->tracer().record(stack_->loop().now(), TraceKind::rto, flow(),
                            snd_una_, 0);
    cc_->on_rto(stack_->loop().now());
    // CA_Loss: stay in recovery so returning ACKs keep repairing holes
    // (cwnd-budgeted), restarting the ACK clock.
    in_recovery_ = true;
    recovery_high_ = snd_nxt_;
    retransmit_nxt_ = snd_una_;
    dup_acks_ = 0;
    retransmit_next_unit(core);
    arm_rto();
  });
}

void TcpSocket::enter_recovery(Core& core) {
  in_recovery_ = true;
  recovery_high_ = snd_nxt_;
  retransmit_nxt_ = snd_una_;
  cc_->on_loss(stack_->loop().now());
  retransmit_next_unit(core);
}

void TcpSocket::retransmit_next_unit(Core& core) {
  // cwnd-budgeted SACK-style repair: each incoming ACK may retransmit up
  // to half a window of hole data (capped at one max-skb so a single ACK
  // never serializes into a multi-millisecond task — a retransmit storm
  // no real stack produces).  With slow-start growth on repair ACKs this
  // restarts the ACK clock exponentially after an RTO.
  retransmit_nxt_ = std::max(retransmit_nxt_, snd_una_);
  const Bytes mss = stack_->config().mtu_payload();
  Bytes budget =
      std::clamp<Bytes>(cc_->cwnd() / 2, 2 * mss, Stack::kMaxSkbBytes);
  while (budget > 0) {
    const Bytes len = std::min<Bytes>(
        {2 * mss, recovery_high_ - retransmit_nxt_, budget});
    if (len <= 0) break;
    emit_chunk(core, retransmit_nxt_, len, /*retransmit=*/true);
    retransmit_nxt_ += len;
    budget -= len;
  }
}

void TcpSocket::free_acked_chunks(Core& core, std::int64_t upto) {
  const CostModel& cost = core.cost();
  while (!tx_queue_.empty()) {
    TxChunk& chunk = tx_queue_.front();
    if (chunk.seq + chunk.len > upto) break;
    core.charge(CpuCategory::skb_mgmt, cost.skb_free);
    stack_->iommu().charge_unmap(
        core, static_cast<double>(chunk.len) / kPageBytes);
    for (Page* page : chunk.pages) stack_->allocator().release(core, page);
    tx_queue_.pop_front();
  }
}

void TcpSocket::process_ack(Core& core, const Frame& frame) {
  if (dead()) return;
  const CostModel& cost = core.cost();
  core.charge(CpuCategory::tcpip, cost.tcpip_ack_rx);
  lock(core);
  ++stack_->stats().acks_received;
  stack_->tracer().record(stack_->loop().now(), TraceKind::ack_rx, flow(),
                          frame.ack_seq, frame.ack_seq - snd_una_);

  // Monotone peer window edge (never moves left).
  snd_wnd_edge_ = std::max<std::int64_t>(snd_wnd_edge_,
                                         frame.ack_seq + frame.window);
  sack_high_ = std::max(sack_high_, frame.sack_high);

  Nanos rtt = -1;
  if (frame.echo_ts >= 0) {
    rtt = stack_->loop().now() - frame.echo_ts;
    if (srtt_ == 0) {
      srtt_ = rtt;
      rttvar_ = rtt / 2;
    } else {
      const Nanos err = std::abs(rtt - srtt_);
      rttvar_ = (3 * rttvar_ + err) / 4;
      srtt_ = (7 * srtt_ + rtt) / 8;
    }
  }

  const std::int64_t prior_una = snd_una_;
  Bytes newly = 0;
  if (frame.ack_seq > snd_una_) {
    newly = frame.ack_seq - snd_una_;
    snd_una_ = frame.ack_seq;
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    free_acked_chunks(core, snd_una_);
    rto_backoff_ = 1;
    consecutive_rtos_ = 0;
    rto_timer_.cancel();
    if (snd_una_ < snd_nxt_) arm_rto();
    notify_tx_progress(newly, stack_->loop().now());
  }

  // Windowed delivery-rate estimation (for BBR's bandwidth filter).
  rate_bytes_ += newly;
  const Nanos rate_window = std::max<Nanos>(srtt_, 25'000);
  double rate_sample = 0.0;
  const Nanos now = stack_->loop().now();
  if (now - rate_start_ >= rate_window) {
    if (rate_start_ > 0 && rate_bytes_ > 0) {
      rate_sample = static_cast<double>(rate_bytes_) * 8.0 /
                    static_cast<double>(now - rate_start_);
    }
    rate_start_ = now;
    rate_bytes_ = 0;
  }

  AckEvent event;
  event.now = now;
  event.acked = newly;
  event.rtt = rtt;
  event.ecn_echo = frame.ecn;
  event.inflight = snd_nxt_ - snd_una_;
  event.rate_gbps = rate_sample;
  cc_->on_ack(event);

  // Duplicate-ACK detection (RFC 5681): same cumulative ACK, data
  // outstanding, and no window update — a pure window update must not
  // count as a loss signal.
  const std::int64_t edge_seen = frame.ack_seq + frame.window;
  const bool window_update = edge_seen != last_ack_edge_;
  last_ack_edge_ = edge_seen;
  if (newly == 0 && frame.ack_seq == prior_una && snd_nxt_ > snd_una_ &&
      !window_update) {
    ++dup_acks_;
    ++stack_->stats().dup_acks;
    if (!in_recovery_ && dup_acks_ >= 3) {
      enter_recovery(core);
    } else if (in_recovery_) {
      retransmit_next_unit(core);
    }
  } else if (newly > 0) {
    dup_acks_ = 0;
    if (in_recovery_) {
      if (snd_una_ >= recovery_high_) {
        in_recovery_ = false;
      } else {
        // NewReno partial ACK: repair the next hole, one unit at a time.
        retransmit_next_unit(core);
      }
    }
  }

  wake_writer();
  tcp_output(core);
}

// --------------------------------------------------------------------------
// Receive path
// --------------------------------------------------------------------------

void TcpSocket::drain_ofo(Core& core) {
  // Pull now-contiguous out-of-order data in.  Entries may overlap the
  // delivered prefix (retransmissions cover varying spans), so trim or
  // discard duplicates instead of assuming exact adjacency.
  while (!ofo_.empty()) {
    auto it = ofo_.begin();
    Skb& next = it->second;
    if (next.seq > rcv_nxt_) break;  // still a hole
    if (next.end_seq() <= rcv_nxt_) {
      // Fully duplicate.
      ofo_bytes_ -= next.len;
      release_pages(core, next);
      ofo_.erase(it);
      continue;
    }
    const Bytes dup = rcv_nxt_ - next.seq;
    next.seq += dup;
    next.len -= dup;
    ofo_bytes_ -= dup;
    rcv_nxt_ = next.end_seq();
    ofo_bytes_ -= next.len;
    queue_for_app(std::move(next));
    ofo_.erase(it);
  }
}

Bytes TcpSocket::advertised_window() const {
  return std::max<std::int64_t>(0, rcv_wnd_edge_ - rcv_nxt_);
}

void TcpSocket::maybe_autotune_rcv_buf() {
  if (stack_->config().tcp_rx_buf > 0) return;  // fixed by configuration
  // Linux dynamic right-sizing: the receiver estimates its "RTT" as the
  // time to receive one window's worth of data and sizes the buffer to
  // twice what was delivered in that interval.  Since one window arrives
  // per window-time by construction, the buffer doubles until tcp_rmem[2]
  // — the DCA-oblivious overshoot the paper analyzes in §3.1.
  if (autotune_delivered_ >= rcv_buf_cur_) {
    rcv_buf_cur_ = std::min<Bytes>(
        std::max<Bytes>(2 * autotune_delivered_, rcv_buf_cur_),
        Stack::kRcvBufMax);
    autotune_delivered_ = 0;
  }
}

void TcpSocket::set_receiver_driven(GrantScheduler& scheduler) {
  grant_scheduler_ = &scheduler;
  // Reset the window to the blind unscheduled allowance; further credit
  // arrives only through grant_credit().
  rcv_wnd_edge_ = rcv_nxt_ + kUnscheduledBytes;
  scheduler.enroll(*this);
}

void TcpSocket::grant_credit(Core& core, Bytes bytes) {
  require(grant_scheduler_ != nullptr, "grant on a sender-driven socket");
  require(bytes > 0, "grant must be positive");
  rcv_wnd_edge_ += bytes;
  stack_->tracer().record(stack_->loop().now(), TraceKind::grant, flow(),
                          bytes, rcv_wnd_edge_ - rcv_nxt_);
  send_ack(core, /*echo_ts=*/-1, /*ecn_echo=*/false);
}

void TcpSocket::on_delack_fired() {
  if (delack_pending_ == 0) return;
  stack_->core(app_core()).post(timer_ctx_, [this](Core& c) {
    send_ack(c, /*echo_ts=*/-1, /*ecn_echo=*/false);
  });
}

void TcpSocket::send_ack(Core& core, Nanos echo_ts, bool ecn_echo) {
  delack_pending_ = 0;
  delack_timer_.cancel();
  core.charge(CpuCategory::tcpip, core.cost().tcpip_ack_tx);
  ++stack_->stats().acks_sent;
  stack_->tracer().record(stack_->loop().now(), TraceKind::ack_tx, flow(),
                          rcv_nxt_, advertised_window());

  // Monotone advertised edge.  Queued data counts at skb truesize
  // (~2x payload for page-backed skbs), as Linux charges rcvbuf — this
  // halves the effective window relative to the nominal buffer size.
  // In receiver-driven mode the edge moves only via grant_credit().
  if (grant_scheduler_ == nullptr) {
    rcv_wnd_edge_ = std::max(
        rcv_wnd_edge_,
        rcv_nxt_ + std::max<Bytes>(
                       0, rcv_buf_cur_ - 2 * (rq_bytes() + ofo_bytes_)));
  }

  Frame ack;
  ack.flow = flow();
  ack.is_ack = true;
  ack.ack_seq = rcv_nxt_;
  ack.window = advertised_window();
  ack.sack_high = ofo_.empty() ? rcv_nxt_ : ofo_.rbegin()->second.end_seq();
  ack.echo_ts = echo_ts;
  ack.ecn = ecn_echo;
  stack_->nic().transmit(ack);
}

void TcpSocket::rx_deliver(Core& core, Skb skb) {
  if (dead()) {
    release_pages(core, skb);
    return;
  }
  charge_rx_skb(core, skb);
  const std::int32_t obs_span = skb.obs_span;

  // Trim data we already have (retransmission overlap).
  if (skb.seq < rcv_nxt_) {
    const Bytes dup = std::min<Bytes>(rcv_nxt_ - skb.seq, skb.len);
    skb.seq += dup;
    skb.len -= dup;
    if (skb.len == 0) {
      release_pages(core, skb);
      send_ack(core, skb.sent_at, skb.ecn);
      return;
    }
  }

  // Entirely beyond the advertised window: a zero-window probe.  Discard
  // and re-ACK the current window (RFC 9293 §3.8.6.1).  Normal data never
  // lands here — the sender respects the edge and GRO only merges
  // in-window segments — so this cannot drop anything the window admitted.
  // Receiver-driven mode is exempt: its credit edge is a scheduling
  // signal, not a buffer bound, and over-credit unscheduled data is
  // accepted by design.
  if (grant_scheduler_ == nullptr && skb.seq >= rcv_wnd_edge_) {
    release_pages(core, skb);
    send_ack(core, skb.sent_at, skb.ecn);
    return;
  }

  const bool ecn_echo = skb.ecn;
  const Nanos echo_ts = skb.sent_at;
  const bool skb_was_in_order = skb.seq == rcv_nxt_;
  const int skb_segments = skb.segments;
  if (skb_was_in_order) {
    // In-order data is never dropped: it is within the advertised window
    // by construction and unblocks everything queued out of order.
    rcv_nxt_ = skb.end_seq();
    queue_for_app(std::move(skb));
    drain_ofo(core);
  } else {
    // Out of order: queue (bounded) and signal the hole with a dup ACK.
    const bool duplicate_key =
        ofo_.find(skb.seq) != ofo_.end() &&
        ofo_.find(skb.seq)->second.len >= skb.len;
    const bool overflow =
        rq_bytes() + ofo_bytes_ + skb.len > rcv_buf_cur_ + kRcvOverflowSlack;
    if (duplicate_key || overflow) {
      if (overflow && !duplicate_key) ++stack_->stats().rcv_queue_drops;
      release_pages(core, skb);
    } else if (auto it = ofo_.find(skb.seq); it != ofo_.end()) {
      // Longer span for the same start: replace the shorter entry.
      ofo_bytes_ += skb.len - it->second.len;
      release_pages(core, it->second);
      it->second = std::move(skb);
    } else {
      ofo_bytes_ += skb.len;
      ofo_.emplace(skb.seq, std::move(skb));
    }
  }

  // Delayed ACKs: a single-segment in-order delivery with no holes may
  // wait for a companion (classic every-other-segment acking); GRO'd
  // skbs cover >= 2 MSS and are acknowledged immediately, as are
  // out-of-order situations.  A timer guarantees an eventual ACK.
  const bool in_order = skb_was_in_order;
  if (stack_->config().delayed_ack && in_order && skb_segments < 2 &&
      ofo_.empty() && ++delack_pending_ < 2) {
    if (!delack_timer_.armed()) {
      delack_timer_.arm_after(kDelackTimeout);
    }
  } else {
    send_ack(core, echo_ts, ecn_echo);
  }
  // Only in-order skbs are attributed the wakeup — OFO data wakes nobody
  // until the hole fills.
  wake_reader(skb_was_in_order ? obs_span : -1);
}

void TcpSocket::on_read(Core& core, Bytes copied) {
  autotune_delivered_ += copied;
  maybe_autotune_rcv_buf();

  if (grant_scheduler_ != nullptr) {
    if (copied > 0) grant_scheduler_->on_progress(core, *this);
    return;
  }

  // Window update (tcp_cleanup_rbuf): advertise as soon as reading
  // opened the window by at least 2 MSS, keeping the sender streaming
  // instead of stalling until a coarse-grained update.
  if (copied > 0) {
    const Bytes fresh_space = std::max<Bytes>(
        0, rcv_buf_cur_ - 2 * (rq_bytes() + ofo_bytes_));
    const std::int64_t fresh_edge = rcv_nxt_ + fresh_space;
    if (fresh_edge - rcv_wnd_edge_ >= 2 * stack_->config().mtu_payload()) {
      send_ack(core, /*echo_ts=*/-1, /*ecn_echo=*/false);
    }
  }
}

}  // namespace hostsim
