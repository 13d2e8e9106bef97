#include "obs/request_trace.h"

#include <algorithm>
#include <map>

#include "obs/hash.h"
#include "sim/contract.h"
#include "sim/stats.h"

namespace hostsim::obs {

namespace {

// Domain-separation tags so trace ids, span ids, and sampling decisions
// never collide even for equal inputs.
constexpr std::uint64_t kTraceTag = 0x7472616365ULL;   // "trace"
constexpr std::uint64_t kSpanTag = 0x7370616eULL;      // "span"
constexpr std::uint64_t kSampleTag = 0x73616d70ULL;    // "samp"

std::uint64_t flow_key(int flow, std::int64_t ordinal) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(flow)) << 32) ^
         static_cast<std::uint64_t>(ordinal);
}

}  // namespace

std::string_view to_string(ReqKind kind) {
  switch (kind) {
    case ReqKind::request: return "request";
    case ReqKind::attempt: return "attempt";
    case ReqKind::backoff: return "backoff";
    case ReqKind::connect: return "connect";
    case ReqKind::xmit: return "xmit";
    case ReqKind::service: return "service";
    case ReqKind::hop: return "hop";
  }
  return "?";
}

std::string_view to_string(ReqClass cls) {
  constexpr std::string_view kNames[] = {"", "open_loop", "rpc",
                                         "rpc_resilient"};
  return kNames[static_cast<std::size_t>(cls)];
}

void RequestTracer::configure(std::uint64_t seed, int host, double trace_rate,
                              std::size_t max_spans) {
  seed_ = seed;
  host_ = host;
  threshold_ = rate_to_threshold(trace_rate);
  max_spans_ = max_spans;
}

bool RequestTracer::sampled(int flow, std::int64_t ordinal) const {
  if (threshold_ == 0) return false;
  if (threshold_ == ~std::uint64_t{0}) return true;
  return mix64(mix64(seed_ ^ kSampleTag) ^ flow_key(flow, ordinal)) <
         threshold_;
}

std::uint64_t RequestTracer::make_trace_id(int flow,
                                           std::int64_t ordinal) const {
  const std::uint64_t id =
      mix64(mix64(seed_ ^ kTraceTag) ^ flow_key(flow, ordinal));
  return id != 0 ? id : 1;
}

std::int32_t RequestTracer::start(ReqKind kind, std::uint64_t trace_id,
                                  std::uint64_t parent_id, int flow,
                                  ReqClass cls, std::int32_t attempt,
                                  std::int64_t key, Bytes bytes, Nanos now) {
  if (threshold_ == 0) return -1;
  if (spans_.size() >= max_spans_) {
    ++capped_;
    return -1;
  }
  RequestSpan span;
  span.trace_id = trace_id;
  const std::uint64_t id = mix64(
      mix64(seed_ ^ kSpanTag ^
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(host_))
             << 32)) ^
      next_seq_++);
  span.span_id = id != 0 ? id : 1;
  span.parent_id = parent_id;
  span.kind = kind;
  span.host = host_;
  span.flow = flow;
  span.cls = cls;
  span.attempt = attempt;
  span.key = key;
  span.bytes = bytes;
  span.start = now;
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void RequestTracer::finish(std::int32_t id, Nanos now, bool ok) {
  if (id < 0) return;
  require(static_cast<std::size_t>(id) < spans_.size(), "bad request span id");
  RequestSpan& span = spans_[static_cast<std::size_t>(id)];
  if (span.closed()) return;
  span.end = now;
  span.ok = ok;
}

std::uint64_t RequestTracer::span_id_of(std::int32_t id) const {
  if (id < 0) return 0;
  require(static_cast<std::size_t>(id) < spans_.size(), "bad request span id");
  return spans_[static_cast<std::size_t>(id)].span_id;
}

void join_request_spans(std::vector<RequestSpan>& spans) {
  // Client attempts index the joins: by (flow, key) for service spans,
  // by (flow, time window) for switch hops.
  struct AttemptRef {
    int flow;
    std::uint64_t trace_id;
    std::uint64_t span_id;
    Nanos start;
    Nanos end;
  };
  std::map<std::pair<int, std::int64_t>, AttemptRef> by_key;
  std::vector<AttemptRef> by_flow;  // stable-sorted by (flow, start)
  for (const RequestSpan& span : spans) {
    if (span.kind != ReqKind::attempt || span.trace_id == 0) continue;
    const AttemptRef ref{span.flow, span.trace_id, span.span_id, span.start,
                         span.closed() ? span.end : span.start};
    if (span.key >= 0) by_key.emplace(std::make_pair(span.flow, span.key), ref);
    by_flow.push_back(ref);
  }
  std::ranges::stable_sort(by_flow, {}, [](const AttemptRef& ref) {
    return std::pair(ref.flow, ref.start);
  });

  for (RequestSpan& span : spans) {
    if (span.trace_id != 0) continue;
    if (span.kind == ReqKind::service) {
      const auto it = by_key.find({span.flow, span.key});
      if (it == by_key.end()) continue;  // unsampled request
      span.trace_id = it->second.trace_id;
      span.parent_id = it->second.span_id;
    } else if (span.kind == ReqKind::hop) {
      // The attempt whose on-the-wire window contains the hop's enqueue
      // instant.  Attempts on one flow never overlap (the client is
      // serial per connection), so at most one matches; none that
      // starts after the hop can.
      auto it = std::ranges::lower_bound(by_flow, span.flow, {},
                                         &AttemptRef::flow);
      for (; it != by_flow.end() && it->flow == span.flow &&
             it->start <= span.start;
           ++it) {
        if (span.start <= it->end) {
          span.trace_id = it->trace_id;
          span.parent_id = it->span_id;
          break;
        }
      }
    }
  }

  spans.erase(std::remove_if(spans.begin(), spans.end(),
                             [](const RequestSpan& span) {
                               return span.trace_id == 0;
                             }),
              spans.end());
  std::sort(spans.begin(), spans.end(),
            [](const RequestSpan& a, const RequestSpan& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              return a.span_id < b.span_id;
            });
}

std::vector<RequestClassSummary> summarize_request_classes(
    const std::vector<RequestSpan>& spans) {
  struct ClassAccum {
    Histogram e2e;
    std::uint64_t requests = 0;
    std::uint64_t retries = 0;
    Nanos slowest_hop = 0;
  };
  std::map<ReqClass, ClassAccum> classes;
  std::map<std::uint64_t, ReqClass> trace_cls;
  for (const RequestSpan& span : spans) {
    if (span.kind != ReqKind::request || !span.closed()) continue;
    ClassAccum& accum = classes[span.cls];
    ++accum.requests;
    accum.e2e.record(span.end - span.start);
    trace_cls.emplace(span.trace_id, span.cls);
  }
  for (const RequestSpan& span : spans) {
    const auto it = trace_cls.find(span.trace_id);
    if (it == trace_cls.end()) continue;
    ClassAccum& accum = classes[it->second];
    if (span.kind == ReqKind::attempt && span.attempt > 0) ++accum.retries;
    if (span.kind == ReqKind::hop && span.closed()) {
      accum.slowest_hop = std::max(accum.slowest_hop, span.end - span.start);
    }
  }
  std::vector<RequestClassSummary> out;
  out.reserve(classes.size());
  for (const auto& [cls, accum] : classes) {
    RequestClassSummary summary;
    summary.cls = std::string(to_string(cls));
    summary.requests = accum.requests;
    summary.p50 = accum.e2e.percentile(0.50);
    summary.p99 = accum.e2e.percentile(0.99);
    summary.retries = accum.retries;
    summary.slowest_hop = accum.slowest_hop;
    out.push_back(std::move(summary));
  }
  return out;
}

}  // namespace hostsim::obs
