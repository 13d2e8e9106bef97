// A point-to-point physical link: each direction serializes frames at
// the configured line rate and delivers them after the propagation
// delay.  Baseline loss is Bernoulli per-frame, matching the paper's
// §3.6 methodology of a programmable switch dropping packets at a
// configured rate; an attached FaultInjector generalizes this with
// Gilbert–Elliott bursty loss, link flaps, and frame corruption.
//
// Two topologies use it:
//   - back-to-back (the paper's testbed): one Link, Side::a = sender
//     host, Side::b = receiver host;
//   - cluster (hw::Switch): one Link per host, Side::a = the host,
//     Side::b forwards to the switch ingress.  Frames carry (src_host,
//     dst_host) stamped by the NIC so the switch can forward by
//     destination.
#ifndef HOSTSIM_HW_LINK_H
#define HOSTSIM_HW_LINK_H

#include <array>
#include <cstdint>
#include <functional>

#include "sim/event_fifo.h"
#include "sim/event_loop.h"
#include "sim/fault_injector.h"
#include "sim/rng.h"
#include "sim/units.h"

namespace hostsim {

/// Protocol header bytes per frame (Ethernet + IP + TCP incl. options).
inline constexpr Bytes kFrameHeaderBytes = 66;

/// A frame on the wire.  Data frames carry payload; ACK frames carry
/// cumulative/selective acknowledgment state and the advertised window.
struct Frame {
  int flow = -1;
  std::int64_t seq = 0;   ///< payload start sequence (data frames)
  Bytes payload = 0;

  bool is_ack = false;
  std::int64_t ack_seq = 0;    ///< cumulative ACK (ACK frames)
  std::int64_t sack_high = 0;  ///< highest contiguous OFO seq (simplified SACK)
  Bytes window = 0;            ///< advertised receive window (ACK frames)

  bool ecn = false;      ///< CE mark (data) / ECE echo (ACKs)
  bool corrupt = false;  ///< delivered, but the receiver's checksum fails
  bool is_rst = false;   ///< connection reset (header-only; is_ack set too
                         ///< so it rides the NIC's copybreak path)
  bool is_syn = false;   ///< handshake: SYN (alone) or SYN-ACK (with is_ack)
  bool is_fin = false;   ///< active close (header-only; is_ack set too)
  Nanos echo_ts = -1;    ///< echoed send timestamp, for RTT estimation
  Nanos sent_at = 0;

  /// Host addressing, stamped by the transmitting NIC.  A back-to-back
  /// link ignores them; a Switch forwards by dst_host.
  std::int16_t src_host = 0;
  std::int16_t dst_host = -1;

  /// Observability span id assigned by the receiving NIC (-1 = not
  /// sampled).  Pure telemetry — never affects forwarding or protocol.
  std::int32_t obs_span = -1;

  // --- Message-transport extensions (HomaTransport; TCP ignores them) ---
  std::int64_t msg_id = -1;  ///< message identifier within the flow
  Bytes msg_len = 0;         ///< total message length (Homa data frames)
  bool is_grant = false;     ///< receiver grant: ack_seq = granted offset edge
  bool is_resend = false;    ///< resend request: seq = lowest missing offset

  Bytes wire_bytes() const { return payload + kFrameHeaderBytes; }
};

/// One-way propagation of every simulated cable (host uplinks, the
/// switch's downlinks, the back-to-back wire).  It is also the sharded
/// executor's lookahead: no frame reaches another host sooner.
inline constexpr Nanos kWirePropagation = 1'000;

class Link {
 public:
  struct Config {
    double gbps = 100.0;
    Nanos propagation = kWirePropagation;  ///< one-way
    double loss_rate = 0.0;       ///< Bernoulli per-frame drop probability
    Nanos ecn_threshold = 0;      ///< mark CE when egress delay exceeds; 0=off
  };

  /// Endpoint indices for the two attached ends.
  enum class Side { a = 0, b = 1 };

  Link(EventLoop& loop, const Config& config);

  /// Sharded-cluster form: the loss stream is provided explicitly
  /// (pulled from the root RNG in serial construction order) instead of
  /// forked from `loop`, so shard-local loops replay the serial run's
  /// stream assignments exactly.
  Link(EventLoop& loop, const Config& config, Rng rng);

  /// Registers the frame sink for one side (its NIC's receive path).
  void attach(Side side, std::function<void(Frame)> deliver);

  /// Cluster hook, used instead of a sink: every frame toward `side` is
  /// handed to `forward(at, sent, frame)` rather than scheduled locally —
  /// `at` is the computed delivery time (tx_end + propagation) and `sent`
  /// the transmit timestamp, which seeds the deterministic ordering key
  /// (EventLoop::schedule_delivery).  The forwarder routes by
  /// Frame::dst_host to the owning shard's loop and the switch ingress.
  using RemoteForward = std::function<void(Nanos at, Nanos sent, Frame)>;
  void set_remote_forward(Side side, RemoteForward forward) {
    forwards_[static_cast<std::size_t>(side)] = std::move(forward);
  }

  /// Attaches the run's fault injector (bursty loss, flaps, corruption).
  /// The baseline Bernoulli `loss_rate` stays active independently.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// Identity used for per-link fault addressing (FaultPlan link/port
  /// indices); in a cluster this is the attached host's index.
  void set_id(int id) { id_ = id; }
  int id() const { return id_; }

  /// Queues a frame for transmission from `from` toward the other side.
  void transmit(Side from, Frame frame);

  /// Current egress queueing delay on `from`'s direction.
  Nanos egress_delay(Side from) const;

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t ecn_marked() const { return ecn_marked_; }

 private:
  EventLoop* loop_;
  Config config_;
  int id_ = 0;
  std::array<std::function<void(Frame)>, 2> sinks_{};
  std::array<RemoteForward, 2> forwards_{};
  std::array<Nanos, 2> busy_until_{};
  std::array<EventFifo<Frame>, 2> in_flight_;  ///< by destination side
  Rng rng_;
  FaultInjector* faults_ = nullptr;

  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t ecn_marked_ = 0;
};


}  // namespace hostsim

#endif  // HOSTSIM_HW_LINK_H
