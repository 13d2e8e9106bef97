// Per-skb pipeline spans (Fig. 1 of the paper).
//
// A span follows one sampled payload frame through the receive pipeline,
// stamping the simulated time it reaches each stage:
//
//   nic_dma -> irq -> gro -> tcpip -> wakeup -> copy
//
// Not every stage fires for every skb (frames arriving during an active
// NAPI poll get no IRQ, LRO/GRO-merged trailing segments donate their
// journey to the head skb), so stamps are optional and per-stage
// durations are measured between *present* stamps only.
//
// Sampling is a pure hash of (seed, host, flow, seq): deterministic,
// stateless, and independent of the run's RNG streams — attaching the
// tracer can never perturb simulation outcomes.
#ifndef HOSTSIM_OBS_SPAN_H
#define HOSTSIM_OBS_SPAN_H

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.h"
#include "sim/units.h"

namespace hostsim::obs {

/// Fig. 1 receive-pipeline stages, in pipeline order.
enum class Stage : std::uint8_t {
  nic_dma,  ///< frame DMA'd into a posted rx descriptor
  irq,      ///< IRQ fired / NAPI kicked for the frame's queue
  gro,      ///< softirq processing: skb built and fed to GRO
  tcpip,    ///< TCP/IP layer accepted the skb
  wakeup,   ///< blocked reader notified (scheduler wakeup)
  copy,     ///< payload copied (or remapped) to user space
};

inline constexpr std::size_t kNumStages = 6;

std::string_view to_string(Stage stage);

inline constexpr Nanos kUnstamped = -1;

struct Span {
  int host = 0;
  int flow = -1;
  std::int64_t seq = 0;
  Bytes len = 0;
  std::array<Nanos, kNumStages> at{kUnstamped, kUnstamped, kUnstamped,
                                   kUnstamped, kUnstamped, kUnstamped};
  bool completed = false;
};

/// Aggregated per-stage latency: the time from a stage's stamp to the
/// next present stamp ("total" rows cover nic_dma -> copy).
struct StageSummary {
  std::string stage;
  std::uint64_t count = 0;
  Nanos p50 = 0;
  Nanos p99 = 0;
};

class SpanTracer {
 public:
  SpanTracer(std::uint64_t seed, double sample_rate, std::size_t max_spans);

  bool enabled() const { return threshold_ > 0; }

  /// Deterministically decides whether (host, flow, seq) is sampled;
  /// returns the new span id, or -1 (not sampled / disabled / capped).
  std::int32_t maybe_start(int host, int flow, std::int64_t seq, Bytes len,
                           Nanos now);

  /// Stamps `stage` at `now` if not already stamped (idempotent — IRQ
  /// re-kicks and retransmit overlaps hit the same span twice).
  void stamp(std::int32_t id, Stage stage, Nanos now);

  /// Marks the span finished and folds its stage durations into the
  /// aggregate histograms.  Stamp `copy` first.  Returns
  /// the completed span (or nullptr for a no-op call) so callers can
  /// feed downstream consumers like the latency monitor.
  const Span* complete(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  std::uint64_t started() const { return started_; }
  std::uint64_t completed() const { return completed_; }
  /// Spans dropped because max_spans was reached.
  std::uint64_t capped() const { return capped_; }

  /// Aggregate per-stage breakdown over completed spans (stages with no
  /// samples are omitted; a trailing "total" row covers end-to-end).
  std::vector<StageSummary> summary() const;

  /// Per-stage + end-to-end histogram bundle; public so the Observer
  /// can merge per-host tracers into one cluster-wide breakdown
  /// (Histogram::merge is order-independent, so the merged summary is
  /// identical at every shard count).
  struct StageHistograms {
    std::array<Histogram, kNumStages> stage;
    Histogram total;
  };

  /// Folds this tracer's aggregate histograms into `into`.
  void merge_summary_into(StageHistograms& into) const;

  /// Renders a merged bundle the same way summary() renders one tracer.
  static std::vector<StageSummary> summarize_merged(
      const StageHistograms& merged);

 private:
  static std::vector<StageSummary> summarize(const StageHistograms& h);
  void fold(const Span& span, StageHistograms& into) const;

  std::uint64_t seed_;
  std::uint64_t threshold_;  ///< sample iff hash < threshold_
  std::size_t max_spans_;
  std::vector<Span> spans_;
  StageHistograms aggregate_;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t capped_ = 0;
};

}  // namespace hostsim::obs

#endif  // HOSTSIM_OBS_SPAN_H
