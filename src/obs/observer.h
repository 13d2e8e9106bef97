// Observer: the per-run observability hub.
//
// Owns the counter/gauge registry plus — per host — pipeline span
// tracers, request tracers, and latency monitors, and — per shard —
// time-series samplers.  Datapath components hold a nullable
// `Observer*` (null when observability is off — the disabled path is a
// single pointer compare) and stamp through the inline helpers below.
//
// Shard-awareness: every collection structure is partitioned by the
// same ownership the sharded engine uses (host -> shard), so each shard
// only ever writes its own slices; the cross-shard views (merged
// time-series, merged spans, joined request traces, merged latency
// windows) are computed at harvest from deterministic keys, never from
// collection order.  A serial run is the one-shard topology on the same
// code path, which is what makes obs artifacts byte-identical at every
// `--shards=N` (pinned by tests/obs/).
//
// Invariant: nothing reachable from an Observer mutates simulation
// state.  Hooks charge no cycles, consume no RNG, and the sampler's
// events are read-only — Metrics from an instrumented run are
// bit-identical to an uninstrumented one (pinned by tests/obs/).
#ifndef HOSTSIM_OBS_OBSERVER_H
#define HOSTSIM_OBS_OBSERVER_H

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "obs/latency_monitor.h"
#include "obs/obs_config.h"
#include "obs/registry.h"
#include "obs/request_trace.h"
#include "obs/sampler.h"
#include "obs/span.h"
#include "sim/contract.h"
#include "sim/event_loop.h"

namespace hostsim::obs {

class Observer {
 public:
  /// Span ids pack (host, per-host index) so stamp/complete calls route
  /// without the callers carrying the host around.
  static constexpr int kSpanIdxBits = 20;
  /// Retained spans per host, and hop records per switch port: the
  /// span-id index capacity, a memory bound for long runs.
  static constexpr std::size_t kMaxSpans = std::size_t{1} << kSpanIdxBits;

  /// `loops[s]` is shard s's event loop and `shard_of_host[h]` the shard
  /// owning host h; the per-host structures are sized from it.
  Observer(std::vector<EventLoop*> loops, std::vector<int> shard_of_host,
           const ObsConfig& config, std::uint64_t seed);

  const ObsConfig& config() const { return config_; }

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }

  /// Schedules the samplers (no-op when the period is 0): one per
  /// shard, each restricted to the instruments its shard owns.  Call
  /// after every gauge is registered — i.e. once the testbed is built.
  void start_sampler();

  // -- hot-path span helpers (callers already null-checked `this`) --

  std::int32_t span_start(int host, int flow, std::int64_t seq, Bytes len,
                          Nanos now);

  void span_stamp(std::int32_t id, Stage stage, Nanos now) {
    if (id < 0) return;
    tracer_of(id).stamp(index_of(id), stage, now);
  }

  void span_complete(std::int32_t id);

  // -- request tracing --

  bool tracing() const { return config_.tracing_enabled(); }

  /// Host h's request tracer (single writer: h's shard).
  RequestTracer& requests(int host);

  /// Latency-monitor feed for one completed request — called for every
  /// completion (traced or not) so class percentiles are unsampled.
  void request_latency(int host, ReqClass cls, Nanos value, Nanos now);

  // -- harvest views (post-run, single thread) --

  /// Merged time-series: global registration-order columns with fold
  /// groups collapsed into summed aggregate columns.
  struct Series {
    std::vector<std::string> columns;
    std::vector<Nanos> times;
    std::vector<std::vector<double>> rows;
  };
  Series merged_series() const;

  /// All pipeline spans, in (host, per-host start order) — the order a
  /// serial single-tracer run would have recorded per host.
  std::vector<Span> merged_spans() const;

  /// All request spans (unjoined), host order; the caller appends
  /// switch hop spans and runs join_request_spans().
  std::vector<RequestSpan> merged_requests() const;

  /// Cluster-wide per-stage breakdown (order-independent merge of the
  /// per-host aggregates).
  std::vector<StageSummary> stage_summary() const;

  /// Merged continuous-latency monitor (windowed histograms of every
  /// host folded together).
  LatencyMonitor merged_latency() const;

  std::uint64_t spans_started() const;
  std::uint64_t spans_completed() const;

 private:
  static constexpr std::int32_t kSpanIdxMask = (1 << kSpanIdxBits) - 1;

  SpanTracer& tracer_of(std::int32_t id) {
    return span_tracers_[static_cast<std::size_t>(id >> kSpanIdxBits)];
  }
  static std::int32_t index_of(std::int32_t id) { return id & kSpanIdxMask; }

  /// `host` as an index into the per-host structures.
  std::size_t host_index(int host) const {
    require(host >= 0 &&
                static_cast<std::size_t>(host) < shard_of_host_.size(),
            "host outside the observer's topology");
    return static_cast<std::size_t>(host);
  }

  ObsConfig config_;
  Registry registry_;
  std::vector<EventLoop*> loops_;
  std::vector<int> shard_of_host_;
  std::vector<SpanTracer> span_tracers_;        // per host
  std::vector<RequestTracer> request_tracers_;  // per host
  std::vector<LatencyMonitor> monitors_;        // per host
  std::vector<std::unique_ptr<TimeSeriesSampler>> samplers_;  // per shard
};

}  // namespace hostsim::obs

#endif  // HOSTSIM_OBS_OBSERVER_H
