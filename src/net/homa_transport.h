// Receiver-driven message transport (paper §3.3 / §4, Homa/pHost-style).
//
// The paper's incast analysis ends with: "the sender-driven nature of
// the TCP protocol precludes the receiver to control the number of
// active flows per core...  We believe receiver-driven protocols can
// provide such control."  HomaTransport implements that protocol behind
// the net::Transport seam.  It does not replace TCP's receiver-driven
// GrantScheduler mode (StackConfig::receiver_driven).  On an 8:1 incast
// (8 ms warm-up, 10 ms window) that mode takes the rx copy miss rate to
// 0.000 at 56.7 Gbps per core; this transport measures 0.981 at 31.3
// (0.969 at 32.5 with homa_max_active = 1), and TCP 0.993 at 25.4.
//
//  * Messages, not byte streams: each TransportSocket::send() call
//    delimits one message; the receiver reassembles and delivers whole
//    messages to recv() in completion order (SRPT, so short messages
//    overtake long ones — the opposite of TCP FIFO byte streams).
//  * Blind unscheduled first window: a sender transmits the first
//    kUnscheduledBytes of a message immediately; the remainder moves
//    only under receiver grants.
//  * Receiver grants with SRPT ordering and per-core active caps: each
//    application core grants at most `homa_max_active` incoming messages
//    at once, shortest-remaining first, keeping kGrantBytes of credit
//    outstanding per active message.
//  * No per-connection buffers: there is no advertised window and no
//    receive-buffer autotuning; per-message reassembly state exists
//    only while a message is in flight.
//
// Loss recovery is receiver-driven where possible (a stalled incomplete
// message draws a RESEND naming its lowest missing offset) with a
// sender-side restart timer as the blackout fallback (all-unscheduled
// loss leaves the receiver unaware of the message); kMaxResends
// consecutive silent restarts declare the socket dead with ETIMEDOUT.
//
// Deliberate simplification: protocol processing runs inline on the
// polling (IRQ) core — a receiver-driven transport pins work to the
// granting core by construction, so the RPS/RFS requeue machinery does
// not apply (SteeringMode still places the IRQ itself).
#ifndef HOSTSIM_NET_HOMA_TRANSPORT_H
#define HOSTSIM_NET_HOMA_TRANSPORT_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/skb.h"
#include "net/transport.h"
#include "sim/timer.h"

namespace hostsim {

class Stack;
class HomaTransport;

class HomaSocket : public TransportSocket {
 public:
  HomaSocket(Stack& stack, HomaTransport& transport, int flow, int app_core);
  ~HomaSocket() override;

  Bytes send_space() const override;
  bool send_queue_empty() const override { return tx_messages_.empty(); }

  // --- Protocol-neutral ledger -------------------------------------------
  std::int64_t tx_acked() const override { return tx_acked_; }
  std::int64_t tx_written() const override { return tx_written_; }
  std::int64_t rx_covered() const override { return rx_covered_; }
  /// Reassembly bytes: received but not yet part of a complete message.
  Bytes ofo_bytes() const override { return reassembly_bytes_; }
  bool loss_timer_armed() const override {
    return restart_timer_.armed() || restart_task_pending_;
  }

  // --- Telemetry gauges ---------------------------------------------------
  /// Transmission allowance: granted-but-unsent plus unscheduled credit.
  Bytes cwnd_bytes() const override;
  Bytes inflight() const override { return tx_sent_ - tx_acked_; }

  // --- Stack / transport API (softirq context) ---------------------------
  /// One control frame for this flow (grant, resend, MSG_ACK, or RST).
  void rx_control(Core& core, const Frame& frame);
  /// One softirq-batched run of contiguous data frames of one message
  /// (skb.seq/len are in-message offsets; the transport merged them).
  void rx_data(Core& core, std::int64_t msg_id, Bytes msg_len, Skb skb);

  /// Remaining ungranted+unreceived bytes of an incomplete incoming
  /// message (SRPT key for the transport's grant scheduler).
  Bytes rx_remaining(std::int64_t msg_id) const;
  /// Extends the grant edge of an active incoming message and transmits
  /// the grant frame; called by the transport's scheduler.
  void push_grant(Core& core, std::int64_t msg_id);

 private:
  struct TxMessage {
    std::int64_t id = 0;
    Bytes len = 0;
    Bytes sent = 0;     ///< bytes transmitted at least once
    Bytes granted = 0;  ///< transmission allowance (unscheduled + grants)
    PageList pages;
  };
  struct RxMessage {
    std::int64_t id = 0;
    Bytes len = 0;
    Bytes received = 0;       ///< distinct bytes held in `frags`
    Bytes granted_edge = 0;   ///< offset we have granted up to
    bool enrolled = false;    ///< known to the grant scheduler
    Nanos last_arrival = 0;
    std::map<std::int64_t, Skb> frags;  ///< by in-message offset
  };

  // TransportSocket hooks
  void write(Core& core, Bytes accept) override;
  void on_read(Core& core, Bytes copied) override;
  void release_tx(Core& core) override;
  void release_rx(Core& core) override;
  void collect_protocol_pages(std::vector<const Page*>& held) const override;

  /// Transmits [msg.sent, min(msg.granted, msg.len)) in max-skb chunks.
  void transmit_pending(Core& core, TxMessage& msg);
  void emit_range(Core& core, const TxMessage& msg, Bytes from, Bytes to,
                  bool retransmit);
  void complete_rx(Core& core, RxMessage& msg);
  void send_control(Core& core, Frame frame);  ///< grants / acks / resends
  void on_restart_fired();
  void on_resend_scan_fired();
  void arm_restart();
  void note_tx_activity();
  void sample_rtt(Nanos echo_ts);

  void handle_grant(Core& core, const Frame& frame);
  void handle_resend(Core& core, const Frame& frame);
  void handle_msg_ack(Core& core, const Frame& frame);

  HomaTransport* transport_;

  // --- Sender state ---
  std::deque<TxMessage> tx_messages_;  ///< unacked, oldest first
  std::int64_t next_tx_msg_id_ = 0;
  Bytes tx_buffered_ = 0;  ///< sum of unacked message lengths
  std::int64_t tx_written_ = 0;
  std::int64_t tx_acked_ = 0;
  std::int64_t tx_sent_ = 0;
  /// Blackout fallback: retransmits the oldest message's unscheduled
  /// window when nothing (grant/ack) has arrived for a whole interval.
  Timer restart_timer_;
  bool restart_task_pending_ = false;
  Nanos last_tx_activity_ = 0;
  int consecutive_restarts_ = 0;

  // --- Receiver state ---
  std::map<std::int64_t, RxMessage> rx_messages_;  ///< in reassembly
  std::unordered_set<std::int64_t> rx_completed_;  ///< MSG_ACK dedup
  Bytes reassembly_bytes_ = 0;
  std::int64_t rx_covered_ = 0;
  /// Stall detector: an incomplete message idle for a whole interval
  /// draws a RESEND naming its lowest missing offset.
  Timer resend_timer_;
  /// True after a grant was withheld because the unread backlog crossed
  /// kRcvBuf; recv() pumps the core's grant scheduler on drain.
  bool rx_backpressured_ = false;

  Context timer_ctx_{"homa-timer", /*kernel=*/true};
};

class HomaTransport : public Transport {
 public:
  explicit HomaTransport(Stack& stack);
  ~HomaTransport() override;

  TransportKind kind() const override { return TransportKind::homa; }

  std::unique_ptr<TransportSocket> make_socket(int flow,
                                               int app_core) override;
  void rx_frame(Core& core, int queue, Nic::PolledFrame polled) override;
  void rx_flush(Core& core, int queue) override;
  void collect_held_pages(std::vector<const Page*>& held) const override;
  void on_socket_destroyed(int flow) override;

  /// Total grants issued (parity with GrantScheduler::grants_issued).
  std::uint64_t grants_issued() const { return grants_issued_; }

  // --- Grant scheduler (SRPT, per-application-core active caps) ----------

  /// Registers an incomplete incoming message needing grants; activates
  /// it immediately when the core has a free active slot.
  void sched_enroll(Core& core, HomaSocket& socket, std::int64_t msg_id);
  /// Called on arrival progress for an active message: slides its credit.
  void sched_progress(Core& core, HomaSocket& socket, std::int64_t msg_id);
  /// Retires a completed (or destroyed) message, promoting the shortest
  /// waiting one.
  void sched_retire(Core& core, HomaSocket& socket, std::int64_t msg_id);
  /// Drops every scheduler reference to `socket` (abort/destroy).
  void sched_purge(Core& core, HomaSocket& socket);
  /// Re-offers grants to every active message on `app_core`; called when
  /// recv() drains an unread backlog that had been withholding grants.
  void sched_pump(Core& core, int app_core);

  void note_grant() { ++grants_issued_; }

 private:
  struct Entry {
    HomaSocket* socket = nullptr;
    std::int64_t msg_id = 0;
  };
  struct CoreSched {
    std::vector<Entry> active;
    std::vector<Entry> waiting;
  };
  /// Softirq merge in progress: contiguous data frames of one message,
  /// coalesced within a NAPI poll round (the Linux Homa module batches
  /// through the same NAPI/GRO hooks; without this, per-frame protocol
  /// costs saturate the receiving core and starve the application).
  struct PendingBatch {
    std::int64_t msg_id = 0;
    Bytes msg_len = 0;
    Skb skb;
  };

  void promote(Core& core, CoreSched& sched);
  void deliver(Core& core, int flow, PendingBatch&& batch);

  Stack* stack_;
  std::vector<std::unordered_map<int, PendingBatch>> pending_;  ///< by queue
  std::unordered_map<int, CoreSched> sched_;  ///< by application core
  std::uint64_t grants_issued_ = 0;
};

}  // namespace hostsim

#endif  // HOSTSIM_NET_HOMA_TRANSPORT_H
