// Seed-deterministic random processes for the open-loop engine.
//
// Every sampler owns a forked Rng stream and consumes a fixed number of
// draws per sample in a fixed order, so a (config, seed) pair replays
// the exact arrival times and request sizes on every platform.
//
// Arrivals use thinning (Lewis & Shedler): candidate gaps are drawn from
// a homogeneous Poisson process at the rate envelope `lambda_max` and
// accepted with probability rate(t)/lambda_max, which makes the MMPP
// burst states and the diurnal curve exact without inverting their
// integrated-rate functions.
#ifndef HOSTSIM_WORKLOAD_DISTRIBUTIONS_H
#define HOSTSIM_WORKLOAD_DISTRIBUTIONS_H

#include "sim/rng.h"
#include "sim/units.h"
#include "workload/workload_config.h"

namespace hostsim::workload {

/// Arrival-time process: Poisson or 2-state MMPP, optionally modulated
/// by a diurnal sinusoid.  next() returns strictly increasing absolute
/// times.
class ArrivalSampler {
 public:
  ArrivalSampler(const WorkloadConfig& config, Rng rng);

  /// Absolute time of the next arrival after the previous one (the
  /// first call samples from t = 0).
  Nanos next();

 private:
  double rate_at(Nanos t);      ///< instantaneous rate in requests/sec
  void advance_state(Nanos t);  ///< lazily walk MMPP sojourns up to t

  WorkloadConfig config_;
  Rng rng_;
  Nanos t_ = 0;
  double lambda_max_ = 0;  ///< thinning envelope, requests/sec
  bool bursting_ = false;
  Nanos state_until_ = 0;  ///< current MMPP sojourn ends here
};

/// Request-size distribution: fixed / log-normal / bounded Pareto.
class SizeSampler {
 public:
  /// `mean_size` is TrafficConfig::rpc_size — the fixed size, and the
  /// mean of the log-normal mix.
  SizeSampler(const WorkloadConfig& config, Bytes mean_size, Rng rng);

  Bytes next();

 private:
  WorkloadConfig config_;
  Bytes mean_size_;
  Rng rng_;
  double lognormal_mu_ = 0;  ///< ln-mean chosen so E[size] == mean_size
};

}  // namespace hostsim::workload

#endif  // HOSTSIM_WORKLOAD_DISTRIBUTIONS_H
