#include "obs/span.h"

#include "obs/hash.h"
#include "sim/contract.h"

namespace hostsim::obs {

std::string_view to_string(Stage stage) {
  switch (stage) {
    case Stage::nic_dma: return "nic_dma";
    case Stage::irq: return "irq";
    case Stage::gro: return "gro";
    case Stage::tcpip: return "tcpip";
    case Stage::wakeup: return "wakeup";
    case Stage::copy: return "copy";
  }
  return "?";
}

SpanTracer::SpanTracer(std::uint64_t seed, double sample_rate,
                       std::size_t max_spans)
    : seed_(seed),
      threshold_(rate_to_threshold(sample_rate)),
      max_spans_(max_spans) {}

std::int32_t SpanTracer::maybe_start(int host, int flow, std::int64_t seq,
                                     Bytes len, Nanos now) {
  if (threshold_ == 0) return -1;
  if (threshold_ != ~std::uint64_t{0}) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(host)) << 32) |
        static_cast<std::uint32_t>(flow);
    const std::uint64_t h =
        mix64(mix64(seed_ ^ key) ^ static_cast<std::uint64_t>(seq));
    if (h >= threshold_) return -1;
  }
  if (spans_.size() >= max_spans_) {
    ++capped_;
    return -1;
  }
  Span span;
  span.host = host;
  span.flow = flow;
  span.seq = seq;
  span.len = len;
  span.at[static_cast<std::size_t>(Stage::nic_dma)] = now;
  spans_.push_back(span);
  ++started_;
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanTracer::stamp(std::int32_t id, Stage stage, Nanos now) {
  if (id < 0) return;
  require(static_cast<std::size_t>(id) < spans_.size(), "bad span id");
  Nanos& slot = spans_[static_cast<std::size_t>(id)].at[
      static_cast<std::size_t>(stage)];
  if (slot == kUnstamped) slot = now;
}

const Span* SpanTracer::complete(std::int32_t id) {
  if (id < 0) return nullptr;
  require(static_cast<std::size_t>(id) < spans_.size(), "bad span id");
  Span& span = spans_[static_cast<std::size_t>(id)];
  if (span.completed) return nullptr;
  span.completed = true;
  ++completed_;
  fold(span, aggregate_);
  return &span;
}

void SpanTracer::merge_summary_into(StageHistograms& into) const {
  for (std::size_t i = 0; i < kNumStages; ++i) {
    into.stage[i].merge(aggregate_.stage[i]);
  }
  into.total.merge(aggregate_.total);
}

std::vector<StageSummary> SpanTracer::summarize_merged(
    const StageHistograms& merged) {
  return summarize(merged);
}

void SpanTracer::fold(const Span& span, StageHistograms& into) const {
  // Duration of stage i = next present stamp - stamp(i).
  for (std::size_t i = 0; i < kNumStages; ++i) {
    if (span.at[i] == kUnstamped) continue;
    for (std::size_t j = i + 1; j < kNumStages; ++j) {
      if (span.at[j] == kUnstamped) continue;
      into.stage[i].record(span.at[j] - span.at[i]);
      break;
    }
  }
  const Nanos first = span.at[static_cast<std::size_t>(Stage::nic_dma)];
  const Nanos last = span.at[static_cast<std::size_t>(Stage::copy)];
  if (first != kUnstamped && last != kUnstamped) {
    into.total.record(last - first);
  }
}

std::vector<StageSummary> SpanTracer::summarize(const StageHistograms& h) {
  std::vector<StageSummary> out;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const Histogram& hist = h.stage[i];
    if (hist.count() == 0) continue;
    out.push_back({std::string(to_string(static_cast<Stage>(i))),
                   hist.count(), hist.percentile(0.50),
                   hist.percentile(0.99)});
  }
  if (h.total.count() > 0) {
    out.push_back({"total", h.total.count(), h.total.percentile(0.50),
                   h.total.percentile(0.99)});
  }
  return out;
}

std::vector<StageSummary> SpanTracer::summary() const {
  return summarize(aggregate_);
}

}  // namespace hostsim::obs
