#include "hw/switch.h"

#include <algorithm>
#include <utility>

#include "sim/contract.h"

namespace hostsim {

Switch::Switch(EventLoop& loop, const Config& config) : config_(config) {
  require(config.num_ports >= 2, "switch needs at least two ports");
  require(config.port_gbps > 0, "switch port rate must be positive");
  require(config.buffer_bytes >= 0, "switch buffer must be non-negative");
  require(config.ecn_threshold_bytes >= 0,
          "switch ECN threshold must be non-negative");
  ports_ = std::vector<Port>(static_cast<std::size_t>(config.num_ports));
  for (int i = 0; i < num_ports(); ++i) shard_port(i, loop, nullptr);
}

void Switch::attach_port(int port, std::function<void(Frame)> deliver) {
  require(port >= 0 && port < num_ports(), "switch port out of range");
  ports_[static_cast<std::size_t>(port)].sink = std::move(deliver);
}

void Switch::shard_port(int port, EventLoop& loop, FaultInjector* faults) {
  require(port >= 0 && port < num_ports(), "switch port out of range");
  Port& p = ports_[static_cast<std::size_t>(port)];
  p.loop = &loop;
  p.faults = faults;
  // The frame leaves the buffer when its serialization completes; the
  // downlink propagation happens outside it.
  p.serializing.bind(loop, [this, &p](Frame& frame) {
    p.stats.queued_bytes -= frame.wire_bytes();
    p.propagating.push_at(p.loop->now() + config_.propagation,
                          std::move(frame));
  });
  p.propagating.bind(loop, [&p](Frame& frame) { p.sink(std::move(frame)); });
}

void Switch::enable_trace(std::size_t capacity) {
  trace_capacity_ = capacity;
  for (Port& port : ports_) {
    port.trace = KeepNewestRing<RankedRecord>(capacity);
  }
}

void Switch::enable_hop_trace(std::size_t capacity) {
  for (Port& port : ports_) port.hops = KeepNewestRing<HopRecord>(capacity);
}

std::vector<Switch::HopRecord> Switch::hop_snapshot() const {
  // Each port's ring is already in enqueue order (a port's loop clock
  // never runs back), so merging the rings on a min-heap of port heads
  // keyed (enqueue, port) gives the stable (enqueue, port) order.
  std::vector<std::pair<Nanos, int>> heads;  // (enqueue, port), min-heap
  std::vector<std::size_t> next(ports_.size(), 0);  // each head's ring index
  std::size_t total = 0;
  for (int p = 0; p < num_ports(); ++p) {
    const auto& hops = ports_[static_cast<std::size_t>(p)].hops;
    total += hops.size();
    if (hops.size() != 0) heads.emplace_back(hops.at(0).enqueue, p);
  }
  std::ranges::make_heap(heads, std::greater<>{});
  std::vector<HopRecord> merged;
  merged.reserve(total);
  while (!heads.empty()) {
    std::ranges::pop_heap(heads, std::greater<>{});
    const auto port = static_cast<std::size_t>(heads.back().second);
    const auto& hops = ports_[port].hops;
    merged.push_back(hops.at(next[port]));
    if (++next[port] == hops.size()) {
      heads.pop_back();
    } else {
      heads.back().first = hops.at(next[port]).enqueue;
      std::ranges::push_heap(heads, std::greater<>{});
    }
  }
  return merged;
}

std::vector<TraceRecord> Switch::trace_snapshot() const {
  std::vector<RankedRecord> merged;
  for (const Port& port : ports_) port.trace.append_to(merged);
  std::sort(merged.begin(), merged.end(),
            [](const RankedRecord& a, const RankedRecord& b) {
              if (a.record.at != b.record.at) return a.record.at < b.record.at;
              if (a.rank.sent != b.rank.sent) return a.rank.sent < b.rank.sent;
              if (a.rank.sub != b.rank.sub) return a.rank.sub < b.rank.sub;
              return a.idx < b.idx;
            });
  // Per-port rings each keep their newest `capacity` records, a superset
  // of the newest `capacity` records switch-wide — trimming the merged
  // sequence to the newest `capacity` yields exactly those.
  if (merged.size() > trace_capacity_) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<std::ptrdiff_t>(trace_capacity_));
  }
  std::vector<TraceRecord> records;
  records.reserve(merged.size());
  for (const RankedRecord& entry : merged) records.push_back(entry.record);
  return records;
}

const Switch::PortStats& Switch::port_stats(int port) const {
  require(port >= 0 && port < num_ports(), "switch port out of range");
  return ports_[static_cast<std::size_t>(port)].stats;
}

std::uint64_t Switch::forwarded() const {
  std::uint64_t total = 0;
  for (const Port& port : ports_) total += port.stats.forwarded;
  return total;
}

std::uint64_t Switch::dropped() const {
  std::uint64_t total = 0;
  for (const Port& port : ports_) total += port.stats.drops;
  return total;
}

std::uint64_t Switch::ecn_marked() const {
  std::uint64_t total = 0;
  for (const Port& port : ports_) total += port.stats.ecn_marks;
  return total;
}

std::uint64_t Switch::flap_drops() const {
  std::uint64_t total = 0;
  for (const Port& port : ports_) total += port.stats.flap_drops;
  return total;
}

Bytes Switch::peak_queue_bytes() const {
  Bytes peak = 0;
  for (const Port& port : ports_) {
    peak = std::max(peak, port.stats.peak_queue_bytes);
  }
  return peak;
}

Bytes Switch::queued_bytes() const {
  Bytes total = 0;
  for (const Port& port : ports_) total += port.stats.queued_bytes;
  return total;
}

void Switch::record_trace(Port& egress_port, const Rank& rank, int* idx,
                          Nanos at, TraceKind kind, int flow, std::int64_t a,
                          std::int64_t b) {
  if (egress_port.trace.capacity() == 0) return;
  RankedRecord entry;
  entry.record = TraceRecord{at, kind, kFabricTraceHost, flow, a, b};
  entry.rank = rank;
  entry.idx = (*idx)++;
  egress_port.trace.push(entry);
}

void Switch::ingress_ranked(int port, Frame frame, Nanos sent,
                            std::uint64_t sub) {
  require(port >= 0 && port < num_ports(), "switch port out of range");
  const Rank rank{sent, sub};
  // Port i is host i's cable, so a frame leaves by its destination host.
  const int out = frame.dst_host;
  require(out >= 0 && out < num_ports(),
          "frame destination host is unroutable");
  Port& egress_port = ports_[static_cast<std::size_t>(out)];
  require(static_cast<bool>(egress_port.sink), "egress port not attached");
  EventLoop* loop = egress_port.loop;
  int trace_idx = 0;

  // Egress-side flap: the downlink cable (port and host `out`) is down,
  // so the frame is lost leaving the switch.  The ingress-side window
  // was already applied by the uplink Link itself.
  if (egress_port.faults != nullptr && !egress_port.faults->link_up(out)) {
    ++egress_port.stats.flap_drops;
    egress_port.faults->note_flap_drop();
    return;
  }

  // Blackholed egress: the frame is silently swallowed — no link-down
  // signal, no counter visible to the endpoints.  Only retries mask it.
  if (egress_port.faults != nullptr &&
      egress_port.faults->port_blackholed(out)) {
    egress_port.faults->note_blackhole_drop();
    return;
  }

  if (config_.buffer_bytes == 0) {
    // Pass-through: hand the frame to the destination host at the
    // ingress instant.  The uplink Link already charged serialization
    // and propagation, so a 2-host pass-through cluster reproduces the
    // back-to-back wire timing exactly.
    ++egress_port.stats.forwarded;
    egress_port.sink(frame);
    return;
  }

  const Bytes wire_bytes = frame.wire_bytes();
  if (egress_port.stats.queued_bytes + wire_bytes > config_.buffer_bytes) {
    ++egress_port.stats.drops;
    record_trace(egress_port, rank, &trace_idx, loop->now(),
                 TraceKind::fabric_drop, frame.flow, out,
                 egress_port.stats.queued_bytes);
    return;
  }

  if (config_.ecn_threshold_bytes > 0 &&
      egress_port.stats.queued_bytes >= config_.ecn_threshold_bytes) {
    frame.ecn = true;
    ++egress_port.stats.ecn_marks;
    record_trace(egress_port, rank, &trace_idx, loop->now(),
                 TraceKind::ecn_mark, frame.flow, out,
                 egress_port.stats.queued_bytes);
  }

  egress_port.stats.queued_bytes += wire_bytes;
  egress_port.stats.peak_queue_bytes =
      std::max(egress_port.stats.peak_queue_bytes,
               egress_port.stats.queued_bytes);
  ++egress_port.stats.forwarded;
  record_trace(egress_port, rank, &trace_idx, loop->now(),
               TraceKind::fabric_enqueue, frame.flow, out,
               egress_port.stats.queued_bytes);

  // Output-queued store-and-forward: serialize behind whatever is
  // already queued on the egress port, then propagate down the link.
  // Everything below runs on the egress port's own loop, which in a
  // sharded cluster is the destination host's shard.
  const Nanos start = std::max(loop->now(), egress_port.busy_until);
  const Nanos tx_end = start + serialization_delay(wire_bytes, config_.port_gbps);
  egress_port.busy_until = tx_end;
  if (egress_port.hops.capacity() != 0) {
    egress_port.hops.push(HopRecord{out, frame.flow, loop->now(),
                                    tx_end + config_.propagation,
                                    wire_bytes});
  }
  egress_port.serializing.push_at(tx_end, std::move(frame));
}

}  // namespace hostsim
