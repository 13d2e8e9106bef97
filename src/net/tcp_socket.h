// TCP socket endpoint: send buffer, congestion and flow control, loss
// recovery, and the out-of-order receive queue.  The data-copy boundary
// between user and kernel space, the socket lock and the failure surface
// are the shared socket core (net/transport.h).
//
// Connections are pre-established (the paper uses long-running
// connections for all workloads), and each endpoint is full duplex: RPC
// workloads send data in both directions over one flow id.  Pure ACKs
// are separate frames; data frames of the opposite direction implicitly
// do not acknowledge (a simplification that only costs a few percent of
// header bytes).
#ifndef HOSTSIM_NET_TCP_SOCKET_H
#define HOSTSIM_NET_TCP_SOCKET_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "sim/timer.h"
#include "hw/link.h"
#include "net/cc/congestion_control.h"
#include "net/grant_scheduler.h"
#include "net/skb.h"
#include "net/stack.h"
#include "net/transport.h"

namespace hostsim {

class TcpSocket : public TransportSocket {
 public:
  TcpSocket(Stack& stack, int flow, int app_core);
  ~TcpSocket() override;

  Bytes send_space() const override;
  bool send_queue_empty() const override { return snd_una_ == snd_buf_end_; }

  // --- Receiver-driven mode (paper §3.3/§4) ----------------------------

  /// Switches the receive side to scheduler-granted credit: the
  /// advertised window stops tracking buffer space and only moves when
  /// grant_credit() is called.  Must be set before traffic starts.
  void set_receiver_driven(GrantScheduler& scheduler);

  /// Extends the credited window and advertises it (task context only).
  void grant_credit(Core& core, Bytes bytes);

  /// Granted bytes not yet received.
  Bytes credit_outstanding() const { return rcv_wnd_edge_ - rcv_nxt_; }

  const CongestionControl& congestion() const { return *cc_; }

  // --- Introspection (invariant checker / diagnostics) -------------------

  std::int64_t snd_una() const { return snd_una_; }
  std::int64_t snd_nxt() const { return snd_nxt_; }
  /// Bytes in flight (sent, not yet cumulatively acked).
  Bytes inflight() const override { return snd_nxt_ - snd_una_; }
  std::int64_t rcv_nxt() const { return rcv_nxt_; }
  Bytes ofo_bytes() const override { return ofo_bytes_; }
  /// True while the retransmission timer is armed in the event loop.
  bool rto_armed() const { return rto_timer_.armed(); }
  /// True between the RTO timer firing and its softirq task running.
  bool rto_task_pending() const { return rto_task_pending_; }
  /// True while the pacing qdisc has a release timer outstanding.
  bool pacer_armed() const { return pacer_timer_.armed(); }

  // Protocol-neutral ledger (TransportSocket): TCP's sequence-number
  // edges are exactly the conserved quantities.
  std::int64_t tx_acked() const override { return snd_una_; }
  std::int64_t tx_written() const override { return snd_buf_end_; }
  std::int64_t rx_covered() const override { return rcv_nxt_; }
  bool loss_timer_armed() const override {
    return rto_armed() || rto_task_pending() || pacer_armed();
  }
  Bytes cwnd_bytes() const override { return cc_->cwnd(); }

  // --- Stack API (softirq context) ---------------------------------------

  /// Delivers a post-GRO data skb to the receive side.
  void rx_deliver(Core& core, Skb skb);

  /// Processes an incoming ACK on the send side.
  void process_ack(Core& core, const Frame& frame);

 private:
  struct TxChunk {
    std::int64_t seq = 0;
    Bytes len = 0;
    PageList pages;
  };

  // TransportSocket hooks
  void write(Core& core, Bytes accept) override;
  void on_read(Core& core, Bytes copied) override;
  void release_tx(Core& core) override;
  void release_rx(Core& core) override;
  void collect_protocol_pages(std::vector<const Page*>& held) const override;

  // tx path
  void tcp_output(Core& core);
  void emit_chunk(Core& core, std::int64_t seq, Bytes len, bool retransmit);
  void send_frame(Core& core, Frame frame);
  void pacer_release();
  void arm_rto();
  void on_rto_fired();
  void on_delack_fired();
  void enter_recovery(Core& core);
  void retransmit_next_unit(Core& core);
  void free_acked_chunks(Core& core, std::int64_t upto);

  // rx path
  void drain_ofo(Core& core);
  void send_ack(Core& core, Nanos echo_ts, bool ecn_echo);
  Bytes advertised_window() const;
  void maybe_autotune_rcv_buf();

  // --- Sender state ---
  std::int64_t snd_una_ = 0;
  std::int64_t snd_nxt_ = 0;
  std::int64_t snd_buf_end_ = 0;  ///< snd_una_ + buffered bytes
  std::deque<TxChunk> tx_queue_;
  /// Right edge of the peer's advertised window (monotone, per RFC 7323
  /// window semantics); the initial value stands in for the handshake.
  std::int64_t snd_wnd_edge_ = 256 * kKiB;
  std::unique_ptr<CongestionControl> cc_;
  int dup_acks_ = 0;
  std::int64_t last_ack_edge_ = -1;  ///< for dup-ACK window-change test
  std::int64_t sack_high_ = 0;       ///< highest selective ack seen
  bool in_recovery_ = false;
  std::int64_t recovery_high_ = 0;
  std::int64_t retransmit_nxt_ = 0;  ///< next hole to repair in recovery
  Nanos rttvar_ = 0;
  Nanos rate_start_ = 0;   ///< delivery-rate window start
  Bytes rate_bytes_ = 0;   ///< bytes acked in the current rate window
  Nanos rto_backoff_ = 1;
  Timer rto_timer_;  ///< retransmission / persist-probe timer
  bool rto_task_pending_ = false;  ///< timer fired, softirq task queued
  int consecutive_rtos_ = 0;  ///< RTO fires since the last new ACK

  // pacing (BBR)
  std::deque<Frame> paced_;
  Nanos pacer_next_ = 0;
  Timer pacer_timer_;  ///< qdisc release timer

  // --- Receiver state ---
  std::int64_t rcv_nxt_ = 0;
  std::map<std::int64_t, Skb> ofo_;
  Bytes ofo_bytes_ = 0;
  Bytes rcv_buf_cur_;
  Bytes autotune_delivered_ = 0;   ///< bytes copied since last DRS step
  std::int64_t rcv_wnd_edge_ = 0;  ///< right edge we advertised (monotone)

  int delack_pending_ = 0;   ///< unacked in-order deliveries (delayed ACK)
  Timer delack_timer_;       ///< guarantees an eventual ACK
  GrantScheduler* grant_scheduler_ = nullptr;  ///< receiver-driven mode
  Context timer_ctx_{"tcp-timer", /*kernel=*/true};
};

}  // namespace hostsim

#endif  // HOSTSIM_NET_TCP_SOCKET_H
