#include "obs/event_trace.h"

#include <ostream>

#include "obs/export.h"

namespace hostsim {

std::string_view to_string(TraceKind kind) {
  // Covered switch (no default): -Wswitch flags a newly added kind, and
  // the kNumTraceKinds static_assert in the header catches count drift.
  switch (kind) {
    case TraceKind::skb_deliver: return "skb_deliver";
    case TraceKind::data_copy: return "data_copy";
    case TraceKind::ack_tx: return "ack_tx";
    case TraceKind::ack_rx: return "ack_rx";
    case TraceKind::retransmit: return "retransmit";
    case TraceKind::rto: return "rto";
    case TraceKind::grant: return "grant";
    case TraceKind::window_probe: return "window_probe";
    case TraceKind::fabric_enqueue: return "fabric_enqueue";
    case TraceKind::fabric_drop: return "fabric_drop";
    case TraceKind::ecn_mark: return "ecn_mark";
  }
  return "?";
}

bool trace_kind_from_string(std::string_view name, TraceKind& out) {
  for (std::size_t i = 0; i < kNumTraceKinds; ++i) {
    const TraceKind kind = static_cast<TraceKind>(i);
    if (to_string(kind) == name) {
      out = kind;
      return true;
    }
  }
  return false;
}

void Tracer::record(Nanos at, TraceKind kind, int flow, std::int64_t a,
                    std::int64_t b) {
  if (!enabled()) return;
  ring_.push(TraceRecord{at, kind, host_, flow, a, b});
  ++recorded_;
}

std::vector<TraceRecord> Tracer::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  ring_.append_to(out);
  return out;
}

void write_trace_csv(std::ostream& out,
                     const std::vector<TraceRecord>& records) {
  obs::CsvWriter csv(out);
  csv.field(std::string_view("time_ns"));
  csv.field(std::string_view("kind"));
  csv.field(std::string_view("host"));
  csv.field(std::string_view("flow"));
  csv.field(std::string_view("a"));
  csv.field(std::string_view("b"));
  csv.end_row();
  for (const TraceRecord& record : records) {
    csv.field(record.at);
    csv.field(to_string(record.kind));
    csv.field(static_cast<std::int64_t>(record.host));
    csv.field(static_cast<std::int64_t>(record.flow));
    csv.field(record.a);
    csv.field(record.b);
    csv.end_row();
  }
}

}  // namespace hostsim
