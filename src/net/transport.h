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
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_set>

#include "cpu/core.h"
#include "cpu/scheduler.h"
#include "hw/nic.h"
#include "net/grant_scheduler.h"
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

/// Transport selection and Homa parameters.  Defaults reproduce the
/// legacy TCP stack exactly; the whole block is part of the canonical
/// config JSON (and hash) whatever the kind.
struct TransportConfig {
  TransportKind kind = TransportKind::tcp;
  /// Homa receiver policy: per-core active-message cap, grant quantum,
  /// and the blind unscheduled first window.  It reuses GrantPolicy, the
  /// type that also parameterizes TCP's receiver-driven GrantScheduler
  /// mode (StackConfig::receiver_driven) — a separate path, not one
  /// HomaTransport replaces.
  GrantPolicy homa;
  /// Receiver-side overload guard: while more than this many unread
  /// bytes sit in completed-message queues, the receiver withholds new
  /// grants (the receiver-driven analogue of a closed advertised
  /// window; 0 disables).  Unlike TCP this bounds the *application's*
  /// backlog, not per-connection kernel memory — reassembly state stays
  /// capped by `homa.max_active * homa.grant_bytes` regardless.
  Bytes homa_rcv_buf = 1024 * kKiB;
  /// Sender-side ack clock: only the oldest this-many unacked messages
  /// may transmit their blind unscheduled windows; younger messages wait
  /// buffered.  Without it a message flood emits unscheduled bytes with
  /// no feedback at all and softirq load starves the receiving
  /// application (kernel contexts preempt user contexts per core).
  int homa_max_tx_msgs = 4;
  /// Receiver-side stall detector: an active message with missing bytes
  /// and no arrivals for this long draws a RESEND request.
  Nanos homa_resend_interval = 1 * kMillisecond;
  /// Consecutive sender restarts with no progress before the message's
  /// socket is declared dead with ETIMEDOUT (like tcp_retries2).
  int homa_max_resends = 8;
};

/// One endpoint of a flow, as seen by applications and by the invariant
/// checker.  Implementations own all protocol state; the base carries
/// only the passive observability tx-watch below — nothing protocol
/// behaviour can depend on.
class TransportSocket {
 public:
  virtual ~TransportSocket() = default;

  virtual int flow() const = 0;
  virtual int app_core() const = 0;

  // --- Application API (call from a task on the app core) ---------------

  /// Writes up to `bytes` into the transport (user->kernel data copy),
  /// returning the bytes accepted (possibly 0 when backpressured).  For
  /// message transports each call delimits one message.
  virtual Bytes send(Core& core, Bytes bytes) = 0;

  /// Copies received data to user space until at least `max_bytes` were
  /// copied or the queue drained.  Returns the bytes copied.
  virtual Bytes recv(Core& core, Bytes max_bytes) = 0;

  virtual Bytes readable() const = 0;
  virtual Bytes send_space() const = 0;
  virtual bool send_queue_empty() const = 0;

  /// Thread notified when data becomes readable.
  virtual void set_rx_waiter(Thread* waiter) = 0;
  /// Thread notified when send space frees after a full buffer.
  virtual void set_tx_waiter(Thread* waiter) = 0;

  // --- Failure surface ---------------------------------------------------

  /// Invoked exactly once when the connection dies.
  virtual void set_error_callback(std::function<void(SocketError)> cb) = 0;
  /// Invoked when the peer gracefully closes (FIN) while quiescent.
  virtual void set_fin_callback(std::function<void(Core&)> cb) = 0;
  /// Stack-internal: fires the fin callback (if any) on passive close.
  virtual void on_peer_fin(Core& core) = 0;

  /// Tears the connection down: cancels timers, releases held pages,
  /// fails pending I/O, fires the error callback.  Idempotent; must run
  /// in a task on a core of the owning host.
  virtual void abort(Core& core, SocketError reason,
                     bool killed_by_fault = false) = 0;

  virtual bool dead() const = 0;
  virtual SocketError error() const = 0;
  virtual bool killed_by_fault() const = 0;
  virtual bool error_reported() const = 0;
  /// Receive-side bytes (rx_covered, not yet app-delivered) destroyed by
  /// abort(); the byte-conservation invariant credits these.
  virtual Bytes destroyed_rx_bytes() const = 0;

  /// Total bytes delivered to / accepted from the application.
  virtual Bytes delivered_to_app() const = 0;
  virtual Bytes accepted_from_app() const = 0;

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
  virtual Bytes rq_bytes() const = 0;
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
  virtual Nanos srtt() const = 0;
  /// Bytes in flight (sent, not yet acknowledged).
  virtual Bytes inflight() const = 0;

  /// Adds every page this socket holds a reference to; leak sweep.
  virtual void collect_held_pages(
      std::unordered_set<const Page*>& held) const = 0;

  // --- Stack API (softirq context) ---------------------------------------

  /// Handles an incoming RST: the peer has no (live) socket for this
  /// flow, so the connection dies with ECONNRESET.
  virtual void on_rst(Core& core) = 0;

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

 private:
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
  virtual void collect_held_pages(
      std::unordered_set<const Page*>& held) const = 0;

  /// Called after the Stack removed a (dead) socket from its table.
  virtual void on_socket_destroyed(int flow) = 0;
};

}  // namespace hostsim

#endif  // HOSTSIM_NET_TRANSPORT_H
