// Observability knobs.
//
// ObsConfig lives below core/ so every layer can reference it, and it is
// deliberately NOT part of the serialized ExperimentConfig: observability
// is a read-only lens on a run, so enabling it must never perturb config
// hashes, sweep cache keys, or simulation outcomes (see obs/observer.h).
#ifndef HOSTSIM_OBS_OBS_CONFIG_H
#define HOSTSIM_OBS_OBS_CONFIG_H

#include <cstddef>
#include <string>

#include "sim/units.h"

namespace hostsim {

struct ObsConfig {
  /// Fraction of payload frames that start a pipeline span ([0,1]).
  /// Sampling is a pure hash of (seed, host, flow, seq) — deterministic
  /// and independent of the run's RNG streams.
  double span_rate = 0.0;

  /// Time-series sampling period; 0 disables the sampler.
  Nanos sample_period = 0;

  /// Fraction of requests that mint a distributed trace ([0,1]).  Like
  /// span sampling, the decision is a pure hash of (seed, flow,
  /// ordinal): deterministic, RNG-free, shard-count independent.
  double trace_rate = 0.0;

  /// Window length for the continuous latency monitor; 0 disables it.
  /// The monitor is otherwise always on while an Observer is attached.
  Nanos latency_window = 500 * kMicrosecond;

  /// Windowed-p99 SLO threshold for the breach flagger; 0 disables
  /// flagging (the monitor still records).
  Nanos slo_p99 = 0;

  /// Directory for exported artifacts ("" = keep in memory only).
  std::string out_dir;

  /// Filename stem for exports (<stem>.trace.json, <stem>.timeseries.csv).
  /// The sweep runner overrides this with the point's config hash.
  std::string out_stem = "obs";

  /// Flight-recorder capacity (events kept per host, and for the switch
  /// fabric); 0 disables the recorder.  It feeds Metrics::trace only:
  /// it attaches no Observer (enabled() ignores it), and runs that set
  /// it bypass the sweep cache, which never stores traces.
  std::size_t trace_capacity = 0;

  /// Attach an Observer even when nothing samples — used by bench_engine
  /// to measure the cost of the armed-but-idle hooks.
  bool force_attach = false;

  bool spans_enabled() const { return span_rate > 0.0; }
  bool sampler_enabled() const { return sample_period > 0; }
  bool tracing_enabled() const { return trace_rate > 0.0; }
  bool monitor_enabled() const { return enabled() && latency_window > 0; }
  bool enabled() const {
    return spans_enabled() || sampler_enabled() || tracing_enabled() ||
           force_attach;
  }
};

}  // namespace hostsim

#endif  // HOSTSIM_OBS_OBS_CONFIG_H
