// Request-scoped distributed tracing.
//
// Where pipeline spans (span.h) follow one sampled *frame* through one
// host's receive path, request spans follow one sampled *RPC* end to end
// across hosts: client issue -> connect / retry / backoff -> transport
// send -> per-hop switch queueing -> server service -> completion.
// Fan-out children and retry attempts are sibling spans under one root.
//
// Collection is per *host* (one RequestTracer per host) so a sharded run
// records exactly what the serial run records: every span for host h is
// produced by h's own event stream, which the sharded engine already
// keeps bit-identical per shard.  The cross-host joins — which client
// attempt caused which server service span, which switch hop carried
// which attempt — are resolved deterministically at harvest from
// simulated identifiers ((flow, epoch, ordinal) and time containment),
// never from collection order.
//
// Ids come from the splitmix64 discipline (hash.h): pure functions of
// (seed, host, sequence numbers), so tracing consumes no run RNG and
// artifacts are byte-stable across runs and shard counts.
#ifndef HOSTSIM_OBS_REQUEST_TRACE_H
#define HOSTSIM_OBS_REQUEST_TRACE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/units.h"

namespace hostsim::obs {

/// Request-span kinds, from root to leaf.
enum class ReqKind : std::uint8_t {
  request,  ///< root: client-side end-to-end request lifetime
  attempt,  ///< one try on the wire (retries are sibling attempts)
  backoff,  ///< client waiting out a retry backoff
  connect,  ///< (re)connect / handshake leg
  xmit,     ///< transport send: issue until request bytes acked
  service,  ///< server-side processing of one request
  hop,      ///< switch egress port: queueing + serialization + wire
};

inline constexpr std::size_t kNumReqKinds = 7;

std::string_view to_string(ReqKind kind);

/// Request classes, declared in name order so that a map keyed on the
/// class iterates as one keyed on its name.  Service and hop spans carry
/// `none`, which renders as "".
enum class ReqClass : std::uint8_t { none, open_loop, rpc, rpc_resilient };

std::string_view to_string(ReqClass cls);

/// Fields ordered largest first, so a span packs into 72 bytes.
struct RequestSpan {
  std::uint64_t trace_id = 0;   ///< 0 until joined (service/hop spans)
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 for roots
  std::int64_t key = -1;        ///< join key: (epoch << 32) | serve ordinal
  Nanos start = 0;
  Nanos end = -1;               ///< -1 while open
  Bytes bytes = 0;
  int host = 0;                 ///< recording host (< 0 = switch)
  int flow = -1;
  std::int32_t attempt = 0;     ///< attempt ordinal within the request
  ReqKind kind = ReqKind::request;
  ReqClass cls = ReqClass::none;
  bool ok = true;

  bool closed() const { return end >= 0; }
};

static_assert(sizeof(RequestSpan) == 72);

/// Per-host request-span collector.  Single writer: only the shard that
/// owns the host ever touches it.
class RequestTracer {
 public:
  RequestTracer() = default;

  void configure(std::uint64_t seed, int host, double trace_rate,
                 std::size_t max_spans);

  bool enabled() const { return threshold_ != 0; }

  /// Deterministic root sampling decision for the `ordinal`-th request
  /// on `flow` — a pure hash, identical at every shard count.
  bool sampled(int flow, std::int64_t ordinal) const;

  /// Mints the trace id for a sampled root (pure hash, never 0).
  std::uint64_t make_trace_id(int flow, std::int64_t ordinal) const;

  /// Opens a span; returns its index, or -1 when disabled or capped.
  /// `trace_id` may be 0 for spans joined later (service).
  std::int32_t start(ReqKind kind, std::uint64_t trace_id,
                     std::uint64_t parent_id, int flow, ReqClass cls,
                     std::int32_t attempt, std::int64_t key, Bytes bytes,
                     Nanos now);

  /// Closes span `id` (no-op for id < 0 or an already-closed span).
  void finish(std::int32_t id, Nanos now, bool ok = true);

  /// Span id of an open span, for parenting children under it.
  std::uint64_t span_id_of(std::int32_t id) const;

  const std::vector<RequestSpan>& spans() const { return spans_; }
  std::uint64_t capped() const { return capped_; }

 private:
  std::uint64_t seed_ = 0;
  std::uint64_t threshold_ = 0;
  int host_ = 0;
  std::size_t max_spans_ = 0;
  std::uint64_t next_seq_ = 0;  ///< per-host span-id sequence
  std::uint64_t capped_ = 0;
  std::vector<RequestSpan> spans_;
};

/// Resolves cross-host links in a merged span set, in place:
///  * service spans adopt (trace_id, parent_id) from the client attempt
///    with the same (flow, key);
///  * hop spans adopt them from the earliest-starting attempt on the
///    same flow whose [start, end] window contains the hop's enqueue
///    time;
///  * spans that never joined a sampled trace are dropped;
///  * the survivors are sorted canonically by (start, trace_id, span_id).
void join_request_spans(std::vector<RequestSpan>& spans);

/// Per-request-class rollup over joined spans.
struct RequestClassSummary {
  std::string cls;
  std::uint64_t requests = 0;  ///< completed root spans
  Nanos p50 = 0;               ///< end-to-end latency percentiles
  Nanos p99 = 0;
  std::uint64_t retries = 0;   ///< attempts beyond each request's first
  Nanos slowest_hop = 0;       ///< worst switch-hop duration in the class
};

std::vector<RequestClassSummary> summarize_request_classes(
    const std::vector<RequestSpan>& spans);

}  // namespace hostsim::obs

#endif  // HOSTSIM_OBS_REQUEST_TRACE_H
