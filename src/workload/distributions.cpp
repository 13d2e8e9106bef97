#include "workload/distributions.h"

#include <algorithm>
#include <cmath>

#include "sim/contract.h"

namespace hostsim {

std::string_view to_string(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::poisson: return "poisson";
    case ArrivalProcess::mmpp: return "mmpp";
  }
  return "?";
}

std::string_view to_string(SizeDist dist) {
  switch (dist) {
    case SizeDist::fixed: return "fixed";
    case SizeDist::lognormal: return "lognormal";
    case SizeDist::bounded_pareto: return "bounded-pareto";
  }
  return "?";
}

}  // namespace hostsim

namespace hostsim::workload {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// MMPP: the burst state multiplies the base rate by this factor; the
/// states' sojourns are exponential with these means.
constexpr double kBurstFactor = 4.0;
constexpr Nanos kBurstOnMean = 2 * kMillisecond;
constexpr Nanos kBurstOffMean = 8 * kMillisecond;

/// Period of the diurnal rate curve.
constexpr Nanos kDiurnalPeriod = 10 * kMillisecond;

/// Sigma of ln(size) for log-normal request sizes.
constexpr double kLognormalSigma = 1.0;

}  // namespace

ArrivalSampler::ArrivalSampler(const WorkloadConfig& config, Rng rng)
    : config_(config), rng_(rng) {
  require(config_.rate_rps > 0, "workload arrival rate must be positive");
  require(config_.diurnal_amplitude >= 0 && config_.diurnal_amplitude < 1,
          "diurnal amplitude must be in [0, 1)");
  double envelope = config_.rate_rps * (1.0 + config_.diurnal_amplitude);
  if (config_.arrivals == ArrivalProcess::mmpp) envelope *= kBurstFactor;
  lambda_max_ = envelope;
}

double ArrivalSampler::rate_at(Nanos t) {
  double rate = config_.rate_rps;
  if (config_.arrivals == ArrivalProcess::mmpp && bursting_) {
    rate *= kBurstFactor;
  }
  if (config_.diurnal_amplitude > 0) {
    rate *= 1.0 + config_.diurnal_amplitude *
                      std::sin(kTwoPi * static_cast<double>(t) /
                               static_cast<double>(kDiurnalPeriod));
  }
  return rate;
}

void ArrivalSampler::advance_state(Nanos t) {
  if (config_.arrivals != ArrivalProcess::mmpp) return;
  while (state_until_ <= t) {
    bursting_ = !bursting_;
    state_until_ += rng_.exponential(bursting_ ? kBurstOnMean : kBurstOffMean);
  }
}

Nanos ArrivalSampler::next() {
  // Candidate gaps at the envelope rate; mean gap in nanoseconds.
  const Nanos mean_gap = std::max<Nanos>(
      1, static_cast<Nanos>(1e9 / lambda_max_));
  for (;;) {
    t_ += std::max<Nanos>(1, rng_.exponential(mean_gap));
    advance_state(t_);
    const double accept = rate_at(t_) / lambda_max_;
    if (rng_.next_double() < accept) return t_;
  }
}

SizeSampler::SizeSampler(const WorkloadConfig& config, Bytes mean_size,
                         Rng rng)
    : config_(config), mean_size_(mean_size), rng_(rng) {
  require(mean_size_ > 0, "workload mean size must be positive");
  require(config_.size_min > 0 && config_.size_max >= config_.size_min,
          "workload size bounds must satisfy 0 < min <= max");
  if (config_.sizes == SizeDist::lognormal) {
    // E[exp(mu + sigma Z)] = exp(mu + sigma^2/2) == mean_size.
    lognormal_mu_ = std::log(static_cast<double>(mean_size_)) -
                    kLognormalSigma * kLognormalSigma / 2;
  }
  if (config_.sizes == SizeDist::bounded_pareto) {
    require(config_.pareto_alpha > 0, "pareto alpha must be positive");
  }
}

Bytes SizeSampler::next() {
  switch (config_.sizes) {
    case SizeDist::fixed:
      return mean_size_;
    case SizeDist::lognormal: {
      // Box-Muller, always consuming exactly two uniforms per sample
      // (no spare caching — a fixed draw count keeps replay exact).
      const double u1 = 1.0 - rng_.next_double();  // (0, 1]
      const double u2 = rng_.next_double();
      const double z =
          std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
      const double size =
          std::exp(lognormal_mu_ + kLognormalSigma * z);
      return std::clamp(static_cast<Bytes>(size), config_.size_min,
                        config_.size_max);
    }
    case SizeDist::bounded_pareto: {
      const double u = rng_.next_double();
      const double lo = static_cast<double>(config_.size_min);
      const double hi = static_cast<double>(config_.size_max);
      const double alpha = config_.pareto_alpha;
      // Inverse CDF of the Pareto truncated to [lo, hi].
      const double x =
          lo / std::pow(1.0 - u * (1.0 - std::pow(lo / hi, alpha)),
                        1.0 / alpha);
      return std::clamp(static_cast<Bytes>(x), config_.size_min,
                        config_.size_max);
    }
  }
  return mean_size_;
}

}  // namespace hostsim::workload
