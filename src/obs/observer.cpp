#include "obs/observer.h"

#include <string>
#include <utility>

#include "sim/contract.h"

namespace hostsim::obs {

namespace {

constexpr std::string_view kStageSeries[kNumStages] = {
    "stage.nic_dma", "stage.irq",    "stage.gro",
    "stage.tcpip",   "stage.wakeup", "stage.copy",
};
constexpr std::string_view kTotalSeries = "stage.total";
constexpr std::string_view kClassSeries[] = {
    "class.", "class.open_loop", "class.rpc", "class.rpc_resilient"};

}  // namespace

Observer::Observer(std::vector<EventLoop*> loops,
                   std::vector<int> shard_of_host, const ObsConfig& config,
                   std::uint64_t seed)
    : config_(config),
      loops_(std::move(loops)),
      shard_of_host_(std::move(shard_of_host)) {
  require(!loops_.empty(), "need at least one shard loop");
  const std::size_t hosts = shard_of_host_.size();
  span_tracers_.reserve(hosts);
  request_tracers_.resize(hosts);
  monitors_.resize(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    span_tracers_.emplace_back(seed, config_.span_rate, kMaxSpans);
    request_tracers_[h].configure(seed, static_cast<int>(h),
                                  config_.trace_rate, kMaxSpans);
    monitors_[h].configure(
        config_.monitor_enabled() ? config_.latency_window : 0);
  }
}

std::int32_t Observer::span_start(int host, int flow, std::int64_t seq,
                                  Bytes len, Nanos now) {
  const std::int32_t index =
      span_tracers_[host_index(host)].maybe_start(host, flow, seq, len, now);
  if (index < 0) return -1;
  return (host << kSpanIdxBits) | index;
}

void Observer::span_complete(std::int32_t id) {
  if (id < 0) return;
  const Span* span = tracer_of(id).complete(index_of(id));
  if (span == nullptr) return;
  LatencyMonitor& monitor = monitors_[static_cast<std::size_t>(span->host)];
  if (!monitor.enabled()) return;
  // Stage durations land in the window of the stage's *end* instant —
  // the moment the latency became observable.
  for (std::size_t i = 0; i < kNumStages; ++i) {
    if (span->at[i] == kUnstamped) continue;
    for (std::size_t j = i + 1; j < kNumStages; ++j) {
      if (span->at[j] == kUnstamped) continue;
      monitor.record(kStageSeries[i], span->at[j] - span->at[i],
                     span->at[j]);
      break;
    }
  }
  const Nanos first = span->at[static_cast<std::size_t>(Stage::nic_dma)];
  const Nanos last = span->at[static_cast<std::size_t>(Stage::copy)];
  if (first != kUnstamped && last != kUnstamped) {
    monitor.record(kTotalSeries, last - first, last);
  }
}

RequestTracer& Observer::requests(int host) {
  return request_tracers_[host_index(host)];
}

void Observer::request_latency(int host, ReqClass cls, Nanos value,
                               Nanos now) {
  LatencyMonitor& monitor = monitors_[host_index(host)];
  if (!monitor.enabled()) return;
  monitor.record(kClassSeries[static_cast<std::size_t>(cls)], value, now);
}

void Observer::start_sampler() {
  if (!config_.sampler_enabled()) return;
  require(samplers_.empty(), "start_sampler must run once");
  const std::size_t shards = loops_.size();
  std::vector<std::vector<std::size_t>> owned(shards);
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    const int owner = registry_.owner_host(i);
    std::size_t shard = 0;
    if (owner >= 0) {
      require(static_cast<std::size_t>(owner) < shard_of_host_.size(),
              "gauge owner outside topology");
      shard = static_cast<std::size_t>(
          shard_of_host_[static_cast<std::size_t>(owner)]);
    }
    require(shard < shards, "gauge owner maps to missing shard");
    owned[shard].push_back(i);
  }
  for (std::size_t s = 0; s < shards; ++s) {
    samplers_.push_back(std::make_unique<TimeSeriesSampler>(
        *loops_[s], registry_, config_.sample_period, std::move(owned[s])));
    samplers_.back()->start();
  }
}

Observer::Series Observer::merged_series() const {
  Series out;
  if (samplers_.empty()) return out;
  out.times = samplers_[0]->times();
  for (const auto& sampler : samplers_) {
    require(sampler->times().size() == out.times.size(),
            "shard samplers disagree on tick count");
  }
  if (out.times.empty()) return out;

  // Where each registry entry's values live: (sampler, position).
  const std::size_t n = registry_.size();
  std::vector<std::pair<std::int32_t, std::int32_t>> where(n, {-1, -1});
  for (std::size_t s = 0; s < samplers_.size(); ++s) {
    const auto& indices = samplers_[s]->indices();
    for (std::size_t pos = 0; pos < indices.size(); ++pos) {
      where[indices[pos]] = {static_cast<std::int32_t>(s),
                             static_cast<std::int32_t>(pos)};
    }
  }

  // Columns in global registration order, fold groups collapsed into
  // one summed column at the group's first position.
  const std::vector<std::string> names = registry_.names();
  std::vector<std::int32_t> col_of(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& fold = registry_.fold(i);
    if (fold.empty()) {
      col_of[i] = static_cast<std::int32_t>(out.columns.size());
      out.columns.push_back(names[i]);
      continue;
    }
    std::int32_t existing = -1;
    for (std::size_t c = 0; c < out.columns.size(); ++c) {
      if (out.columns[c] == fold) {
        existing = static_cast<std::int32_t>(c);
        break;
      }
    }
    if (existing < 0) {
      existing = static_cast<std::int32_t>(out.columns.size());
      out.columns.push_back(fold);
    }
    col_of[i] = existing;
  }

  out.rows.reserve(out.times.size());
  for (std::size_t t = 0; t < out.times.size(); ++t) {
    std::vector<double> row(out.columns.size(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto [s, pos] = where[i];
      if (s < 0) continue;
      row[static_cast<std::size_t>(col_of[i])] +=
          samplers_[static_cast<std::size_t>(s)]
              ->rows()[t][static_cast<std::size_t>(pos)];
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

std::vector<Span> Observer::merged_spans() const {
  std::vector<Span> out;
  std::size_t total = 0;
  for (const SpanTracer& tracer : span_tracers_) total += tracer.spans().size();
  out.reserve(total);
  for (const SpanTracer& tracer : span_tracers_) {
    out.insert(out.end(), tracer.spans().begin(), tracer.spans().end());
  }
  return out;
}

std::vector<RequestSpan> Observer::merged_requests() const {
  std::vector<RequestSpan> out;
  std::size_t total = 0;
  for (const RequestTracer& tracer : request_tracers_) {
    total += tracer.spans().size();
  }
  out.reserve(total);
  for (const RequestTracer& tracer : request_tracers_) {
    out.insert(out.end(), tracer.spans().begin(), tracer.spans().end());
  }
  return out;
}

std::vector<StageSummary> Observer::stage_summary() const {
  SpanTracer::StageHistograms merged;
  for (const SpanTracer& tracer : span_tracers_) {
    tracer.merge_summary_into(merged);
  }
  return SpanTracer::summarize_merged(merged);
}

LatencyMonitor Observer::merged_latency() const {
  LatencyMonitor merged;
  merged.configure(config_.monitor_enabled() ? config_.latency_window : 0);
  for (const LatencyMonitor& monitor : monitors_) merged.merge(monitor);
  return merged;
}

std::uint64_t Observer::spans_started() const {
  std::uint64_t total = 0;
  for (const SpanTracer& tracer : span_tracers_) total += tracer.started();
  return total;
}

std::uint64_t Observer::spans_completed() const {
  std::uint64_t total = 0;
  for (const SpanTracer& tracer : span_tracers_) total += tracer.completed();
  return total;
}

}  // namespace hostsim::obs
