#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>

#include "sim/contract.h"

namespace hostsim::obs {

// ---------------------------------------------------------------------------
// CsvWriter

std::string CsvWriter::escape(std::string_view field) {
  const bool needs_quoting =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quoting) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

CsvWriter& CsvWriter::field(std::string_view value) {
  if (row_started_) *out_ << ',';
  *out_ << escape(value);
  row_started_ = true;
  return *this;
}

CsvWriter& CsvWriter::field(std::int64_t value) {
  if (row_started_) *out_ << ',';
  *out_ << value;
  row_started_ = true;
  return *this;
}

CsvWriter& CsvWriter::field(std::uint64_t value) {
  if (row_started_) *out_ << ',';
  *out_ << value;
  row_started_ = true;
  return *this;
}

CsvWriter& CsvWriter::field(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return field(std::string_view(buffer));
}

void CsvWriter::end_row() {
  *out_ << '\n';
  row_started_ = false;
}

// ---------------------------------------------------------------------------
// Time-series CSV

void write_timeseries_csv(std::ostream& out, const Observer::Series& series) {
  CsvWriter csv(out);
  csv.field(std::string_view("time_ns"));
  for (const std::string& column : series.columns) csv.field(column);
  csv.end_row();
  for (std::size_t i = 0; i < series.rows.size(); ++i) {
    csv.field(series.times[i]);
    for (double value : series.rows[i]) csv.field(value);
    csv.end_row();
  }
}

// ---------------------------------------------------------------------------
// Latency-window CSV

void write_latency_csv(std::ostream& out,
                       const std::vector<LatencyMonitor::WindowStats>& rows) {
  CsvWriter csv(out);
  csv.field(std::string_view("window_start_ns"));
  csv.field(std::string_view("series"));
  csv.field(std::string_view("count"));
  csv.field(std::string_view("p50_ns"));
  csv.field(std::string_view("p99_ns"));
  csv.end_row();
  for (const LatencyMonitor::WindowStats& row : rows) {
    csv.field(row.window_start);
    csv.field(row.series);
    csv.field(row.count);
    csv.field(row.p50);
    csv.field(row.p99);
    csv.end_row();
  }
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON

namespace {

void json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out << buffer;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

/// Nanoseconds as trace-event microseconds, fixed 3 decimals
/// (deterministic — no float formatting involved).
void json_micros(std::ostream& out, Nanos ns) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%" PRId64 ".%03d", ns / 1000,
                static_cast<int>(ns % 1000));
  out << buffer;
}

std::string hex_id(std::uint64_t id) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64, id);
  return std::string(buffer);
}

class EventArray {
 public:
  explicit EventArray(std::ostream& out) : out_(&out) {}

  /// Starts one trace event object; caller writes the fields after
  /// "name" and closes with close_event().
  std::ostream& begin_event(std::string_view name) {
    if (!first_) *out_ << ",\n ";
    first_ = false;
    *out_ << "{\"name\":";
    json_string(*out_, name);
    return *out_;
  }

  void close_event() { *out_ << '}'; }

 private:
  std::ostream* out_;
  bool first_ = true;
};

/// One "s" (flow start) / "f" (flow finish, binding enclosing slice)
/// arrow endpoint.
void flow_event(EventArray& array, char phase, std::string_view id, int pid,
                int tid, Nanos ts) {
  std::ostream& o = array.begin_event("rpc");
  o << ",\"ph\":\"" << phase << "\",\"cat\":\"rpc\",\"id\":";
  json_string(o, id);
  if (phase == 'f') o << ",\"bp\":\"e\"";
  o << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"ts\":";
  json_micros(o, ts);
  array.close_event();
}

}  // namespace

void write_perfetto_json(std::ostream& out, const std::vector<Span>& spans,
                         const Observer::Series& series,
                         const std::vector<RequestSpan>& requests,
                         const std::vector<TraceRecord>& events) {
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n ";
  EventArray array(out);

  // Process-name metadata: one per host seen in spans, requests, or
  // events (pid < 0 renders the switch fabric).
  std::set<int> hosts;
  for (const Span& span : spans) hosts.insert(span.host);
  for (const RequestSpan& span : requests) hosts.insert(span.host);
  for (const TraceRecord& record : events) hosts.insert(record.host);
  for (int host : hosts) {
    std::ostream& o = array.begin_event("process_name");
    o << ",\"ph\":\"M\",\"pid\":" << host << ",\"args\":{\"name\":";
    if (host < 0) {
      json_string(o, "switch");
    } else {
      json_string(o, "host" + std::to_string(host));
    }
    o << "}";
    array.close_event();
  }

  // Pipeline spans as duration slices: stage i runs from its stamp to
  // the next present stamp (the copy stage renders as a zero-width
  // slice marking completion).
  for (const Span& span : spans) {
    for (std::size_t i = 0; i < kNumStages; ++i) {
      if (span.at[i] == kUnstamped) continue;
      Nanos end = span.at[i];
      for (std::size_t j = i + 1; j < kNumStages; ++j) {
        if (span.at[j] == kUnstamped) continue;
        end = span.at[j];
        break;
      }
      std::ostream& o =
          array.begin_event(to_string(static_cast<Stage>(i)));
      o << ",\"ph\":\"X\",\"ts\":";
      json_micros(o, span.at[i]);
      o << ",\"dur\":";
      json_micros(o, end - span.at[i]);
      o << ",\"pid\":" << span.host << ",\"tid\":" << span.flow;
      if (i == 0) {
        o << ",\"args\":{\"seq\":" << span.seq << ",\"len\":" << span.len
          << "}";
      }
      array.close_event();
    }
  }

  // Request spans as duration slices, linked by span/parent ids, with
  // cross-host flow arrows attempt -> service (request direction) and
  // service -> attempt (response direction).
  std::map<std::uint64_t, const RequestSpan*> by_span_id;
  for (const RequestSpan& span : requests) {
    by_span_id.emplace(span.span_id, &span);
  }
  for (const RequestSpan& span : requests) {
    if (!span.closed()) continue;
    std::string name = span.kind == ReqKind::request
                           ? "req:" + std::string(to_string(span.cls))
                           : std::string(to_string(span.kind));
    std::ostream& o = array.begin_event(name);
    o << ",\"ph\":\"X\",\"ts\":";
    json_micros(o, span.start);
    o << ",\"dur\":";
    json_micros(o, span.end - span.start);
    o << ",\"pid\":" << span.host << ",\"tid\":" << span.flow
      << ",\"args\":{\"trace\":";
    json_string(o, hex_id(span.trace_id));
    o << ",\"span\":";
    json_string(o, hex_id(span.span_id));
    o << ",\"parent\":";
    json_string(o, hex_id(span.parent_id));
    o << ",\"attempt\":" << span.attempt << ",\"bytes\":" << span.bytes
      << ",\"ok\":" << (span.ok ? "true" : "false") << "}";
    array.close_event();
  }
  for (const RequestSpan& span : requests) {
    if (span.kind != ReqKind::service || !span.closed()) continue;
    const auto it = by_span_id.find(span.parent_id);
    if (it == by_span_id.end()) continue;
    const RequestSpan& attempt = *it->second;
    if (!attempt.closed()) continue;
    flow_event(array, 's', hex_id(span.span_id) + "-req", attempt.host,
               attempt.flow, attempt.start);
    flow_event(array, 'f', hex_id(span.span_id) + "-req", span.host,
               span.flow, span.start);
    flow_event(array, 's', hex_id(span.span_id) + "-rsp", span.host,
               span.flow, span.end);
    flow_event(array, 'f', hex_id(span.span_id) + "-rsp", attempt.host,
               attempt.flow, attempt.end);
  }

  // Sampler rows as counter tracks.
  for (std::size_t i = 0; i < series.rows.size(); ++i) {
    for (std::size_t c = 0; c < series.columns.size(); ++c) {
      std::ostream& o = array.begin_event(series.columns[c]);
      o << ",\"ph\":\"C\",\"ts\":";
      json_micros(o, series.times[i]);
      o << ",\"pid\":0,\"args\":{\"value\":";
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.17g", series.rows[i][c]);
      o << buffer << "}";
      array.close_event();
    }
  }

  // Legacy flight-recorder records as instant events.
  for (const TraceRecord& record : events) {
    std::ostream& o = array.begin_event(to_string(record.kind));
    o << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    json_micros(o, record.at);
    o << ",\"pid\":" << record.host << ",\"tid\":" << record.flow
      << ",\"args\":{\"a\":" << record.a << ",\"b\":" << record.b << "}";
    array.close_event();
  }

  out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Request-span JSONL

void write_spans_jsonl(std::ostream& out,
                       const std::vector<RequestSpan>& requests) {
  for (const RequestSpan& span : requests) {
    out << "{\"trace\":";
    json_string(out, hex_id(span.trace_id));
    out << ",\"span\":";
    json_string(out, hex_id(span.span_id));
    out << ",\"parent\":";
    json_string(out, hex_id(span.parent_id));
    out << ",\"kind\":";
    json_string(out, to_string(span.kind));
    out << ",\"cls\":";
    json_string(out, to_string(span.cls));
    out << ",\"host\":" << span.host << ",\"flow\":" << span.flow
        << ",\"attempt\":" << span.attempt << ",\"start_ns\":" << span.start
        << ",\"end_ns\":" << span.end << ",\"bytes\":" << span.bytes
        << ",\"ok\":" << (span.ok ? "true" : "false") << "}\n";
  }
}

// ---------------------------------------------------------------------------
// Artifact bundle

void write_obs_artifacts(const Observer& observer,
                         const std::vector<TraceRecord>& events,
                         const std::vector<RequestSpan>& requests,
                         const ObsConfig& config) {
  namespace fs = std::filesystem;
  require(!config.out_dir.empty(), "obs out_dir not set");
  fs::create_directories(config.out_dir);
  const fs::path base = fs::path(config.out_dir) / config.out_stem;
  const Observer::Series series = observer.merged_series();
  {
    std::ofstream trace(base.string() + ".trace.json",
                        std::ios::binary | std::ios::trunc);
    require(trace.good(), "cannot open obs trace output");
    write_perfetto_json(trace, observer.merged_spans(), series, requests,
                        events);
  }
  {
    std::ofstream out(base.string() + ".timeseries.csv",
                      std::ios::binary | std::ios::trunc);
    require(out.good(), "cannot open obs time-series output");
    write_timeseries_csv(out, series);
  }
  if (config.tracing_enabled()) {
    std::ofstream out(base.string() + ".spans.jsonl",
                      std::ios::binary | std::ios::trunc);
    require(out.good(), "cannot open obs span log output");
    write_spans_jsonl(out, requests);
  }
  if (config.monitor_enabled()) {
    std::ofstream out(base.string() + ".latency.csv",
                      std::ios::binary | std::ios::trunc);
    require(out.good(), "cannot open obs latency output");
    write_latency_csv(out, observer.merged_latency().readout());
  }
}

}  // namespace hostsim::obs
