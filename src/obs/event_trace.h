// Lightweight event tracing (flight recorder) — the obs:: "event" channel.
//
// When enabled, datapath components record fixed-size events into a ring
// buffer — cheap enough to leave on for debugging runs, bounded so long
// simulations cannot exhaust memory.  The harness exposes the merged
// trace through Metrics and the CLI (`--trace=N`), write_trace_csv()
// produces plotting-friendly output, and the Perfetto exporter renders
// records as instant events alongside pipeline spans (obs/export.h).
// KeepNewestRing is the one ring behind every recorder: the per-host
// Tracer and the switch's per-port trace and hop rings.
//
// Kept in namespace hostsim (not hostsim::obs): the Tracer predates the
// obs layer and every datapath component records through it.
#ifndef HOSTSIM_OBS_EVENT_TRACE_H
#define HOSTSIM_OBS_EVENT_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "sim/units.h"

namespace hostsim {

enum class TraceKind : std::uint8_t {
  skb_deliver,  ///< post-GRO skb reached TCP (a=seq, b=len)
  data_copy,    ///< payload copied to user space (a=bytes)
  ack_tx,       ///< ACK sent (a=rcv_nxt, b=advertised window)
  ack_rx,       ///< ACK processed (a=ack_seq, b=newly acked)
  retransmit,   ///< segment(s) retransmitted (a=seq, b=len)
  rto,           ///< retransmission timeout fired (a=snd_una)
  grant,         ///< receiver-driven credit granted (a=bytes)
  window_probe,  ///< zero-window probe sent (a=snd_nxt, b=len)
  fabric_enqueue,  ///< switch queued a frame (a=egress port, b=queue bytes)
  fabric_drop,     ///< switch drop-tail loss (a=egress port, b=queue bytes)
  ecn_mark,        ///< switch CE-marked a frame (a=egress port, b=queue bytes)
};

/// Number of TraceKind values; keep in sync with the enum (the
/// static_assert below and to_string()'s covered switch both break the
/// build if a kind is added without updating the other).
inline constexpr std::size_t kNumTraceKinds = 11;

static_assert(static_cast<std::size_t>(TraceKind::ecn_mark) + 1 ==
                  kNumTraceKinds,
              "update kNumTraceKinds (and to_string / from_string) when "
              "adding a TraceKind");

std::string_view to_string(TraceKind kind);

/// Inverse of to_string(); returns false if `name` matches no kind.
bool trace_kind_from_string(std::string_view name, TraceKind& out);

struct TraceRecord {
  Nanos at = 0;
  TraceKind kind = TraceKind::skb_deliver;
  int host = 0;  ///< host index (back-to-back: 0 = sender, 1 = receiver);
                 ///< -1 = the switch fabric (kFabricTraceHost)
  int flow = -1;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// Renders `records` as CSV: header time_ns,kind,host,flow,a,b, then one
/// row per record.
void write_trace_csv(std::ostream& out,
                     const std::vector<TraceRecord>& records);

/// Fixed-capacity ring keeping the newest `capacity` entries; capacity 0
/// keeps nothing.
template <class T>
class KeepNewestRing {
 public:
  explicit KeepNewestRing(std::size_t capacity = 0) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }

  void push(const T& entry) {
    if (capacity_ == 0) return;
    if (ring_.size() < capacity_) {
      ring_.push_back(entry);
    } else {
      ring_[next_] = entry;
      next_ = (next_ + 1) % capacity_;
    }
  }

  /// The `i`-th kept entry, oldest first (once the ring wrapped, `next_`
  /// points at the oldest).
  const T& at(std::size_t i) const { return ring_[(next_ + i) % ring_.size()]; }

  /// Appends the kept entries to `out`, oldest first.
  void append_to(std::vector<T>& out) const {
    for (std::size_t i = 0; i < ring_.size(); ++i) out.push_back(at(i));
  }

 private:
  std::size_t capacity_;
  std::vector<T> ring_;
  std::size_t next_ = 0;  ///< write cursor once full
};

class Tracer {
 public:
  /// capacity == 0 disables tracing entirely (record() is a no-op).
  explicit Tracer(std::size_t capacity = 0, int host = 0)
      : ring_(capacity), host_(host) {}

  bool enabled() const { return ring_.capacity() > 0; }

  void record(Nanos at, TraceKind kind, int flow, std::int64_t a = 0,
              std::int64_t b = 0);

  /// Events in time order (oldest first).  The ring keeps the newest
  /// `capacity` events; `overwritten()` counts what was lost.
  std::vector<TraceRecord> snapshot() const;

  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t overwritten() const {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }

  void dump_csv(std::ostream& out) const { write_trace_csv(out, snapshot()); }

 private:
  KeepNewestRing<TraceRecord> ring_;
  int host_;
  std::uint64_t recorded_ = 0;
};

}  // namespace hostsim

#endif  // HOSTSIM_OBS_EVENT_TRACE_H
