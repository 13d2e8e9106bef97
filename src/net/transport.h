// The protocol-layer seam: a Stack owns exactly one Transport, which
// implements everything between "NAPI handed softirq a frame" and "the
// application called send()/recv() on a socket".
//
// The interface exists so the paper's closing claim — that
// receiver-driven protocols can control the number of active flows per
// core where sender-driven TCP cannot (§3.3) — is testable as a real
// protocol swap rather than a bolt-on window hack.  TcpTransport carries
// the original sender-driven machinery byte-for-byte; HomaTransport is a
// receiver-driven message transport (blind unscheduled first window,
// receiver grants in SRPT order, per-core active-message caps).  The
// Stack keeps what is genuinely protocol-independent: the socket table,
// the SYN/FIN/TIME_WAIT lifecycle, NAPI budgeting, and host statistics.
// TransportSocket is the socket core both protocols share: the user/
// kernel data copies, the socket lock, the per-skb charges, and the
// failure surface, so one cost model serves both transports.
//
// Contract highlights (DESIGN.md §13 is the normative version):
//  * rx_frame() is called in softirq task context on the rx queue's
//    polling core for every frame the Stack does not consume itself
//    (corrupt frames, SYNs, and FINs never reach the transport).
//  * rx_flush() ends the poll round; any coalescing (GRO) must flush so
//    frames never outlive the NAPI invocation inside the transport.
//  * Sockets returned by make_socket() must keep the byte-conservation
//    ledger exact under loss, reordering, and abort():
//        delivered_to_app + rq_bytes + destroyed_rx_bytes == rx_covered
//    and tx_acked <= peer rx_covered <= tx_written at quiescence.
//  * loss_timer_armed() must be true whenever tx_acked < tx_written on a
//    live socket and no other mechanism guarantees forward progress —
//    the RTO-liveness invariant sweeps on it.
#ifndef HOSTSIM_NET_TRANSPORT_H
#define HOSTSIM_NET_TRANSPORT_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "cpu/core.h"
#include "cpu/scheduler.h"
#include "hw/nic.h"
#include "mem/small_vec.h"
#include "net/skb.h"
#include "sim/inline_function.h"
#include "sim/units.h"

namespace hostsim {

class Stack;

/// Terminal socket error, surfaced to the application through the error
/// callback instead of a hang.
enum class SocketError : std::uint8_t {
  none,
  econnreset,  ///< peer sent RST / fault killed the connection
  etimedout,   ///< too many consecutive RTOs / resends, connection dead
};

std::string_view to_string(SocketError error);

/// Which Transport implementation a stack runs.
enum class TransportKind : std::uint8_t {
  tcp,   ///< sender-driven byte stream (the paper's measured stack)
  homa,  ///< receiver-driven message transport (paper §3.3's "we believe")
};

std::string_view to_string(TransportKind kind);

/// Transport selection, and the one Homa parameter the receiver-driven
/// bench varies.  Defaults reproduce the legacy TCP stack exactly; the
/// whole block is part of the canonical config JSON (and hash) whatever
/// the kind.  Homa's other limits are constants in net/homa_transport.cpp,
/// and its grant quantum and blind first window are the ones TCP's
/// GrantScheduler uses (net/grant_scheduler.h).
struct TransportConfig {
  TransportKind kind = TransportKind::tcp;
  /// Homa receiver policy: messages per application core that hold
  /// grants at once.
  int homa_max_active = 2;
};

/// The pages backing one unit of transmitted user data (a TCP TSO chunk,
/// a Homa message); a 64KB chunk spans at most 16 pages inline.
using PageList = SmallVec<Page*, 16>;

/// One endpoint of a flow, as seen by applications and by the invariant
/// checker.  The base is the socket core both transports share — the
/// receive queue and its kernel->user copy, the user->kernel copy, the
/// socket lock, the failure surface (abort, RST, callbacks, waiters) and
/// the application byte ledger — so the paper's dominant per-byte cost
/// (Table 1's data copy) is modelled once.  Implementations keep only
/// protocol state and plug in through the protected hooks below.
///
/// Ordering contract (charge and page-release order drive the pageset
/// LIFO, page ids and LLC state, so every metric depends on it):
///  * send() admits bytes, then hands them to write(), which calls
///    copy_from_user() once per unit it queues;
///  * abort() releases the send side (release_tx), then the receive
///    queue, then out-of-order/reassembly state (release_rx).
class TransportSocket {
 public:
  virtual ~TransportSocket();

  TransportSocket(const TransportSocket&) = delete;
  TransportSocket& operator=(const TransportSocket&) = delete;

  int flow() const { return flow_; }
  int app_core() const { return app_core_; }

  // --- Application API (call from a task on the app core) ---------------

  /// Writes up to `bytes` into the transport (user->kernel data copy),
  /// returning the bytes accepted (possibly 0 when backpressured).  For
  /// message transports each call delimits one message.
  Bytes send(Core& core, Bytes bytes);

  /// Copies received data to user space, whole skbs at a time, until at
  /// least `max_bytes` were copied or the queue drained.  Returns the
  /// bytes copied.
  Bytes recv(Core& core, Bytes max_bytes);

  Bytes readable() const { return rq_bytes_; }
  virtual Bytes send_space() const = 0;
  virtual bool send_queue_empty() const = 0;

  /// Thread notified when data becomes readable.
  void set_rx_waiter(Thread* waiter) { rx_waiter_ = waiter; }
  /// Thread notified when send space frees after a full buffer.
  void set_tx_waiter(Thread* waiter) { tx_waiter_ = waiter; }

  // --- Failure surface ---------------------------------------------------

  /// Invoked exactly once when the connection dies (ECONNRESET on
  /// RST/crash, ETIMEDOUT after the transport's retry threshold).  Apps
  /// that register one observe the failure instead of hanging; both
  /// waiters are notified as well so blocked send()/recv() return 0.
  void set_error_callback(std::function<void(SocketError)> on_error) {
    on_error_ = std::move(on_error);
  }

  /// Invoked when the peer gracefully closes (FIN) while this socket is
  /// quiescent: the app must drop its pointer — the stack retires the
  /// socket immediately after the callback returns (passive close, no
  /// TIME_WAIT).  A non-quiescent FIN arrival aborts with ECONNRESET
  /// through the error callback instead, like close() with unread data.
  void set_fin_callback(std::function<void(Core&)> on_fin) {
    on_peer_fin_ = std::move(on_fin);
  }
  /// Stack-internal: fires the fin callback (if any) on passive close.
  void on_peer_fin(Core& core) {
    if (on_peer_fin_) on_peer_fin_(core);
  }

  /// Tears the connection down: cancels every timer, releases all held
  /// pages (in-flight receive bytes are accounted as destroyed), fails
  /// pending I/O, and fires the error callback.  Idempotent.  Must run
  /// in a task on a core of the owning host (page release charges there).
  /// `killed_by_fault` records the disposition for the invariant sweep:
  /// true for crash/fault kills, false for peer RSTs, timeouts, and
  /// app-initiated aborts.
  void abort(Core& core, SocketError reason, bool killed_by_fault = false);

  /// Handles an incoming RST (softirq context): the peer has no (live)
  /// socket for this flow, so the connection dies with ECONNRESET.
  void on_rst(Core& core);

  /// True once the connection has terminally failed.
  bool dead() const { return error_ != SocketError::none; }
  SocketError error() const { return error_; }
  /// Fault-disposition introspection for the invariant sweep: a dead
  /// socket must be either fault-killed or have reported its error.
  bool killed_by_fault() const { return killed_by_fault_; }
  bool error_reported() const { return error_reported_; }
  /// Receive-side bytes (rx_covered, not yet app-delivered) destroyed by
  /// abort(); the byte-conservation invariant credits these.
  Bytes destroyed_rx_bytes() const { return destroyed_rx_bytes_; }

  /// Total bytes delivered to / accepted from the application.
  Bytes delivered_to_app() const { return delivered_to_app_; }
  Bytes accepted_from_app() const { return accepted_from_app_; }
  /// Wire frames retransmitted by this endpoint.
  std::uint64_t retransmits() const { return retransmits_; }

  // --- Invariant-checker introspection (protocol-neutral ledger) ---------

  /// Send side: bytes the peer has acknowledged end-to-end.
  virtual std::int64_t tx_acked() const = 0;
  /// Send side: bytes the application has successfully written.
  virtual std::int64_t tx_written() const = 0;
  /// Receive side: bytes this endpoint has taken responsibility for
  /// (TCP: rcv_nxt; Homa: completed-message bytes).  Conservation:
  /// delivered_to_app + rq_bytes + destroyed_rx_bytes == rx_covered.
  virtual std::int64_t rx_covered() const = 0;
  /// Bytes sitting in the receive queue awaiting recv().
  Bytes rq_bytes() const { return rq_bytes_; }
  /// Bytes held out of order / in reassembly, not yet rx_covered.
  virtual Bytes ofo_bytes() const = 0;
  /// True while some timer guarantees the connection makes progress (or
  /// dies trying) despite loss; the RTO-liveness invariant sweeps this.
  virtual bool loss_timer_armed() const = 0;

  // --- Telemetry gauges ---------------------------------------------------

  /// Sender's current transmission allowance (TCP: cwnd; Homa: granted
  /// plus unscheduled bytes outstanding).
  virtual Bytes cwnd_bytes() const = 0;
  /// Smoothed RTT estimate (0 until the first sample, or if unsampled).
  Nanos srtt() const { return srtt_; }
  /// Bytes in flight (sent, not yet acknowledged).
  virtual Bytes inflight() const = 0;

  /// Adds every page this socket holds a reference to; leak sweep.
  void collect_held_pages(std::vector<const Page*>& held) const;

  // --- Observability tx-watch (request tracing) ---------------------------

  /// Arms a one-shot watch that fires `done(now)` once `bytes` further
  /// bytes are acknowledged end-to-end — how the request tracer closes a
  /// transmit span at the instant the payload is fully acked.  Purely
  /// observational: the callback must not touch protocol state.  Arming
  /// replaces any previous watch; a watch on a dying socket simply never
  /// fires (the attempt span is closed by the failure path instead).
  void arm_tx_watch(Bytes bytes, InlineFunction<void(Nanos)> done) {
    tx_watch_remaining_ = bytes;
    tx_watch_done_ = std::move(done);
  }

 protected:
  TransportSocket(Stack& stack, int flow, int app_core);

  // --- Protocol hooks -------------------------------------------------------

  /// send(): queues `accept` (> 0) admitted bytes — calling
  /// copy_from_user() once per queued unit — and starts transmitting.
  virtual void write(Core& core, Bytes accept) = 0;
  /// recv(): runs after `copied` bytes (possibly 0) reached the app.
  virtual void on_read(Core& core, Bytes copied) = 0;
  /// abort(): cancels timers and releases send-side pages; runs before
  /// the receive queue is released.
  virtual void release_tx(Core& core) = 0;
  /// abort(): releases out-of-order/reassembly state; runs after the
  /// receive queue is released.
  virtual void release_rx(Core& core) = 0;
  /// Adds the pages of protocol-owned queues (tx, out of order).
  virtual void collect_protocol_pages(std::vector<const Page*>& held) const = 0;

  // --- Shared machinery for the hooks -------------------------------------

  /// Takes the socket spinlock: contended when softirq and application
  /// alternate cores (the paper's aRFS-off lock overhead, §3.1).
  void lock(Core& core);
  /// User->kernel copy of `len` bytes into fresh kernel pages appended
  /// to `pages`, or the MSG_ZEROCOPY pin of the user pages (§4).
  void copy_from_user(Core& core, Bytes len, PageList& pages);
  /// Charges one transmitted skb of `len` bytes at `seq`: a first
  /// transmission pays skb allocation, protocol, GSO and IOMMU mapping
  /// work; a retransmission pays per-frame repair work and is counted.
  void charge_tx_skb(Core& core, std::int64_t seq, Bytes len,
                     bool retransmit);
  /// Protocol receive processing of one post-GRO skb: per-skb and
  /// per-byte cost under the socket lock, plus the flight-recorder and
  /// tcpip-stage span stamps.
  void charge_rx_skb(Core& core, const Skb& skb);
  /// Drops the page references of a discarded skb.
  void release_pages(Core& core, const Skb& skb);
  /// Moves in-order data into the receive queue.
  void queue_for_app(Skb&& skb) {
    rq_bytes_ += skb.len;
    rq_.push_back(std::move(skb));
  }
  /// Wakes a reader blocked on an empty queue; `wake_span` (>= 0) is the
  /// pipeline span whose delivery caused the wakeup.
  void wake_reader(std::int32_t wake_span);
  /// Wakes a writer blocked on a full send buffer once space is worth it.
  void wake_writer();

  /// Implementations call this as the acked ledger advances;
  /// `newly_acked` is the delta since the previous call.  The disarmed
  /// path is a single compare.
  void notify_tx_progress(Bytes newly_acked, Nanos now) {
    if (tx_watch_remaining_ <= 0) return;
    tx_watch_remaining_ -= newly_acked;
    if (tx_watch_remaining_ > 0) return;
    tx_watch_remaining_ = 0;
    if (tx_watch_done_) {
      InlineFunction<void(Nanos)> done = std::move(tx_watch_done_);
      tx_watch_done_ = nullptr;
      done(now);
    }
  }

  Stack* stack_;
  Nanos srtt_ = 0;

 private:
  int flow_;
  int app_core_;
  std::uint64_t retransmits_ = 0;
  std::deque<Skb> rq_;  ///< in-order data awaiting recv()
  Bytes rq_bytes_ = 0;
  Bytes delivered_to_app_ = 0;
  Bytes accepted_from_app_ = 0;
  Bytes destroyed_rx_bytes_ = 0;
  bool tx_was_full_ = false;
  int last_lock_core_ = -1;
  Thread* rx_waiter_ = nullptr;
  Thread* tx_waiter_ = nullptr;

  // --- Failure state ---
  SocketError error_ = SocketError::none;
  bool killed_by_fault_ = false;
  bool error_reported_ = false;
  std::function<void(SocketError)> on_error_;
  std::function<void(Core&)> on_peer_fin_;  ///< graceful passive close

  Bytes tx_watch_remaining_ = 0;
  InlineFunction<void(Nanos)> tx_watch_done_;
};

/// A protocol implementation: builds sockets and consumes the rx frames
/// the Stack routes to it.  One instance per Stack (per host).
class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;

  /// Creates the local endpoint of `flow` pinned to `app_core`.  The
  /// Stack owns the socket and keeps it in its table.
  virtual std::unique_ptr<TransportSocket> make_socket(int flow,
                                                      int app_core) = 0;

  /// Softirq entry for one polled frame the Stack did not consume (data,
  /// ACK/RST, grants — never corrupt/SYN/FIN frames).  Runs on the rx
  /// queue's polling core; the transport owns the fragments from here.
  virtual void rx_frame(Core& core, int queue, Nic::PolledFrame polled) = 0;

  /// End of a NAPI poll round on `queue`: flush any coalescing state so
  /// no frame outlives the poll inside the transport.
  virtual void rx_flush(Core& core, int queue) = 0;

  /// Pages the transport itself holds outside any socket (e.g. parked
  /// cross-core requeues); leak sweep.
  virtual void collect_held_pages(std::vector<const Page*>& held) const = 0;

  /// Called after the Stack removed a (dead) socket from its table.
  virtual void on_socket_destroyed(int flow) = 0;
};

}  // namespace hostsim

#endif  // HOSTSIM_NET_TRANSPORT_H
