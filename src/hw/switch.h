// Output-queued switch fabric for the N-host cluster topology.
//
// Each host's uplink Link delivers frames to one ingress port; the
// switch forwards by Frame::dst_host.  Two operating modes:
//
//   - pass-through (buffer_bytes == 0): frames are handed to the
//     destination host's sink at the ingress instant, with no extra
//     serialization, queueing, or propagation.  A 2-host cluster in
//     this mode is timing-identical to the back-to-back testbed — the
//     determinism argument the cluster refactor rests on (see
//     tests/core/cluster_test.cpp).
//
//   - output-queued (buffer_bytes > 0): every egress port owns a
//     bounded drop-tail FIFO of at most `buffer_bytes` of wire bytes,
//     serializes at `port_gbps`, and delivers after `propagation`.
//     When the instantaneous queue occupancy at enqueue time is at or
//     above `ecn_threshold_bytes`, the frame is CE-marked — the
//     DCTCP-style in-fabric congestion signal the paper's endpoint-only
//     marking could not express.
//
// The model is deterministic and RNG-free: drops are pure drop-tail,
// marks are pure threshold comparisons.  Per-port flap faults are
// consulted through the FaultInjector using the port index as the link
// id (port i and host i's uplink are one "cable").
//
// Partitioning: all mutable per-frame state (busy_until, FIFO
// occupancy, stats, in-flight frames, trace ring) lives per egress port.
// shard_port() binds each port to the loop and fault injector of the
// shard owning its destination host — the single loop when serial — and
// ingress executes there.  Every frame arrives through the delivery
// band carrying its (sent, sub) ordering key (see
// sim/sharded_executor.h), so one ingress entry serves every shard
// count.  Aggregate counters are derived from the per-port stats, and
// the fabric trace is merged from the per-port rings sorted by the
// delivery key, so it cannot depend on the shard count.
#ifndef HOSTSIM_HW_SWITCH_H
#define HOSTSIM_HW_SWITCH_H

#include <cstdint>
#include <vector>

#include "hw/link.h"
#include "obs/event_trace.h"
#include "sim/event_fifo.h"
#include "sim/event_loop.h"
#include "sim/fault_injector.h"
#include "sim/units.h"

namespace hostsim {

class Switch {
 public:
  struct Config {
    int num_ports = 2;
    double port_gbps = 100.0;      ///< egress serialization rate per port
    Nanos propagation = kWirePropagation;  ///< switch -> host downlink
    Bytes buffer_bytes = 0;        ///< per-port FIFO bound; 0 = pass-through
    Bytes ecn_threshold_bytes = 0; ///< CE-mark at/above this occupancy; 0 = off
  };

  /// One egress hop observed by the request tracer: a frame's dwell in
  /// this switch, from FIFO enqueue to delivery at the host NIC.  Both
  /// instants are computed at enqueue time (the egress schedule is
  /// deterministic), so the record is complete when written.
  struct HopRecord {
    int port = 0;
    int flow = -1;
    Nanos enqueue = 0;
    Nanos deliver = 0;  ///< tx_end + propagation
    Bytes bytes = 0;
  };

  /// Per-port counters, exposed for metrics and fault tests.
  struct PortStats {
    std::uint64_t forwarded = 0;   ///< frames enqueued toward this port
    std::uint64_t drops = 0;       ///< drop-tail losses at this port
    std::uint64_t ecn_marks = 0;   ///< frames CE-marked at this port
    std::uint64_t flap_drops = 0;  ///< frames lost to a port-down window
    Bytes peak_queue_bytes = 0;    ///< high-water FIFO occupancy
    Bytes queued_bytes = 0;        ///< instantaneous FIFO occupancy
  };

  Switch(EventLoop& loop, const Config& config);

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  const Config& config() const { return config_; }
  int num_ports() const { return static_cast<int>(ports_.size()); }

  /// Registers the host-bound frame sink behind `port` (the host NIC's
  /// receive path).
  void attach_port(int port, std::function<void(Frame)> deliver);

  /// Binds `port` to its owning shard's loop and fault injector (per-port
  /// flap and blackhole faults; egress consults link_up(port)).  Ingress
  /// for frames bound to this port must then execute on that loop (the
  /// cluster's delivery routing guarantees it).
  void shard_port(int port, EventLoop& loop, FaultInjector* faults);

  /// Fabric flight recorder (fabric_enqueue / fabric_drop / ecn_mark),
  /// one keep-newest ring per egress port; capacity 0 disables, host
  /// field is kFabricTraceHost.
  void enable_trace(std::size_t capacity);

  /// The newest `capacity` fabric trace records, the per-port rings
  /// merged on the (at, sent, sub, idx) delivery key.
  std::vector<TraceRecord> trace_snapshot() const;

  /// Hop recorder for request tracing: keeps the newest `capacity`
  /// records per egress port; 0 disables.  Each port's stream is
  /// written only by the shard owning it and (by the delivery-band
  /// ordering contract) has identical contents at every shard count.
  void enable_hop_trace(std::size_t capacity);

  /// All retained hops, canonically ordered by (enqueue, port) with
  /// per-port insertion order preserved.
  std::vector<HopRecord> hop_snapshot() const;

  /// Ingress: one frame arriving from `port`'s uplink, executing on the
  /// egress port's loop; (sent, sub) is the frame's delivery key, which
  /// ranks its trace records deterministically in the merged trace.
  void ingress_ranked(int port, Frame frame, Nanos sent, std::uint64_t sub);

  // --- Stats (aggregates derived from the per-port counters) --------------

  const PortStats& port_stats(int port) const;
  std::uint64_t forwarded() const;
  std::uint64_t dropped() const;
  std::uint64_t ecn_marked() const;
  std::uint64_t flap_drops() const;
  Bytes peak_queue_bytes() const;
  /// Instantaneous occupancy across all ports.
  Bytes queued_bytes() const;

 private:
  /// Frame delivery key; orders trace records from concurrent shards.
  struct Rank {
    Nanos sent = 0;
    std::uint64_t sub = 0;
  };

  /// One fabric trace record plus its merge key.
  struct RankedRecord {
    TraceRecord record;
    Rank rank;
    std::int32_t idx = 0;  ///< record index within one ingress call
  };

  struct Port {
    std::function<void(Frame)> sink;
    Nanos busy_until = 0;
    PortStats stats;
    EventLoop* loop = nullptr;       ///< owning shard's loop
    FaultInjector* faults = nullptr;
    // Frames serializing, then propagating, toward this port's host;
    // per-port, so concurrent shards never share a FIFO.
    EventFifo<Frame> serializing;
    EventFifo<Frame> propagating;
    KeepNewestRing<RankedRecord> trace;
    KeepNewestRing<HopRecord> hops;
  };

  void record_trace(Port& egress_port, const Rank& rank, int* idx, Nanos at,
                    TraceKind kind, int flow, std::int64_t a, std::int64_t b);

  Config config_;
  std::size_t trace_capacity_ = 0;
  std::vector<Port> ports_;
};

/// TraceRecord::host value used by fabric-side events.
inline constexpr int kFabricTraceHost = -1;

}  // namespace hostsim

#endif  // HOSTSIM_HW_SWITCH_H
