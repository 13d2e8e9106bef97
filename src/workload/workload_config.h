// Open-loop workload configuration (units only, no dependencies beyond
// sim/units.h) — embedded in TrafficConfig as `workload`.
//
// `enabled` is the master switch: false is the default, and the only
// state legacy patterns ever see.  The section is part of the canonical
// config JSON either way (since schema 2).  The engine only forks RNG
// streams when enabled, so run event sequences of legacy experiments —
// and their metrics documents — are untouched.
#ifndef HOSTSIM_WORKLOAD_WORKLOAD_CONFIG_H
#define HOSTSIM_WORKLOAD_WORKLOAD_CONFIG_H

#include <cstdint>
#include <string_view>

#include "sim/units.h"

namespace hostsim {

/// Request arrival process of the open-loop generator.
enum class ArrivalProcess : std::uint8_t {
  poisson,  ///< homogeneous Poisson at `rate_rps` (diurnal-modulated)
  mmpp,     ///< 2-state Markov-modulated Poisson: bursts at a multiple
            ///< of rate_rps alternating with the base rate
};

/// Request size distribution of the open-loop generator.
enum class SizeDist : std::uint8_t {
  fixed,           ///< every request is traffic.rpc_size bytes
  lognormal,       ///< mean traffic.rpc_size, fixed shape
  bounded_pareto,  ///< heavy tail on [size_min, size_max], `pareto_alpha`
};

std::string_view to_string(ArrivalProcess process);
std::string_view to_string(SizeDist dist);

struct WorkloadConfig {
  bool enabled = false;  ///< master switch (see header comment)

  // --- Arrivals -----------------------------------------------------------
  ArrivalProcess arrivals = ArrivalProcess::poisson;
  double rate_rps = 50'000;  ///< mean offered request rate
  /// Sinusoidal rate modulation: rate *= 1 + amplitude*sin(2*pi*t/period).
  /// Amplitude 0 (default) disables the diurnal curve.
  double diurnal_amplitude = 0.0;

  // --- Request sizes (request == response, echo semantics) ---------------
  SizeDist sizes = SizeDist::fixed;
  double pareto_alpha = 1.3;  ///< bounded-Pareto tail index
  Bytes size_min = 64;
  Bytes size_max = 256 * kKiB;

  // --- Connection churn ---------------------------------------------------
  /// Probability that a connection is closed (FIN -> TIME_WAIT) and
  /// re-opened through a fresh handshake after completing a request.
  double churn_prob = 0.0;
  Nanos time_wait = 1 * kMillisecond;  ///< TIME_WAIT residence per closed conn
  int listen_backlog = 64;  ///< server accept queue; SYNs beyond it drop
  Nanos syn_retry = 1 * kMillisecond;  ///< client SYN retransmit base timeout
  int max_syn_retries = 6;

  // --- Fan-out ------------------------------------------------------------
  /// Leaf RPCs per front-end request; the request completes when the
  /// slowest leaf completes (tail-at-scale amplification).
  int fan_out = 1;

  // --- SLO ----------------------------------------------------------------
  /// Per-request latency objective (arrival -> completion); 0 disables
  /// violation accounting.
  Nanos slo = 0;
};

}  // namespace hostsim

#endif  // HOSTSIM_WORKLOAD_WORKLOAD_CONFIG_H
