// Seed determinism and sanity of the open-loop random processes: same
// seed replays the identical draw sequence for every arrival process and
// size distribution, different seeds diverge, and first/second moments
// land near their configured targets.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "workload/distributions.h"

namespace hostsim::workload {
namespace {

WorkloadConfig base_config() {
  WorkloadConfig wl;
  wl.enabled = true;
  wl.rate_rps = 100'000;
  return wl;
}

std::vector<Nanos> arrival_times(const WorkloadConfig& wl,
                                 std::uint64_t seed, int n) {
  ArrivalSampler sampler(wl, Rng(seed));
  std::vector<Nanos> times;
  times.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) times.push_back(sampler.next());
  return times;
}

std::vector<Bytes> sizes(const WorkloadConfig& wl, Bytes mean,
                         std::uint64_t seed, int n) {
  SizeSampler sampler(wl, mean, Rng(seed));
  std::vector<Bytes> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(sampler.next());
  return out;
}

/// FNV-1a over the draws, so a pin reads as one number.
template <typename T>
std::uint64_t fingerprint(const std::vector<T>& draws) {
  std::uint64_t h = 14695981039346656037ull;
  for (const T draw : draws) {
    auto bits = static_cast<std::uint64_t>(draw);
    for (int byte = 0; byte < 8; ++byte, bits >>= 8) {
      h ^= bits & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(DistributionsTest, PoissonSameSeedReplaysIdentically) {
  const WorkloadConfig wl = base_config();
  EXPECT_EQ(arrival_times(wl, 7, 2000), arrival_times(wl, 7, 2000));
  EXPECT_NE(arrival_times(wl, 7, 2000), arrival_times(wl, 8, 2000));
}

TEST(DistributionsTest, MmppSameSeedReplaysIdentically) {
  WorkloadConfig wl = base_config();
  wl.arrivals = ArrivalProcess::mmpp;
  EXPECT_EQ(arrival_times(wl, 7, 2000), arrival_times(wl, 7, 2000));
  EXPECT_NE(arrival_times(wl, 7, 2000), arrival_times(wl, 8, 2000));
}

TEST(DistributionsTest, LognormalSameSeedReplaysIdentically) {
  WorkloadConfig wl = base_config();
  wl.sizes = SizeDist::lognormal;
  EXPECT_EQ(sizes(wl, 16 * kKiB, 7, 2000), sizes(wl, 16 * kKiB, 7, 2000));
  EXPECT_NE(sizes(wl, 16 * kKiB, 7, 2000), sizes(wl, 16 * kKiB, 8, 2000));
}

TEST(DistributionsTest, BoundedParetoSameSeedReplaysIdentically) {
  WorkloadConfig wl = base_config();
  wl.sizes = SizeDist::bounded_pareto;
  EXPECT_EQ(sizes(wl, 16 * kKiB, 7, 2000), sizes(wl, 16 * kKiB, 7, 2000));
  EXPECT_NE(sizes(wl, 16 * kKiB, 7, 2000), sizes(wl, 16 * kKiB, 8, 2000));
}

// The first draws of each shaped process, pinned: the MMPP burst
// factor and sojourn means, the diurnal period and the log-normal sigma
// have no other observer in the suite.
TEST(DistributionsTest, MmppDrawsArePinned) {
  WorkloadConfig wl = base_config();
  wl.arrivals = ArrivalProcess::mmpp;
  EXPECT_EQ(fingerprint(arrival_times(wl, 7, 2000)), 0xe3f803dd896da0f5ull);
}

TEST(DistributionsTest, DiurnalDrawsArePinned) {
  WorkloadConfig wl = base_config();
  wl.diurnal_amplitude = 0.5;
  EXPECT_EQ(fingerprint(arrival_times(wl, 7, 2000)), 0x525512f9c55fc409ull);
}

TEST(DistributionsTest, LognormalDrawsArePinned) {
  WorkloadConfig wl = base_config();
  wl.sizes = SizeDist::lognormal;
  wl.size_max = 4 * kMiB;  // no clamping: every draw shows sigma
  EXPECT_EQ(fingerprint(sizes(wl, 16 * kKiB, 7, 2000)),
            0x4d871f21903f6a7aull);
}

TEST(DistributionsTest, ArrivalsStrictlyIncrease) {
  for (const ArrivalProcess process :
       {ArrivalProcess::poisson, ArrivalProcess::mmpp}) {
    WorkloadConfig wl = base_config();
    wl.arrivals = process;
    wl.diurnal_amplitude = 0.5;
    const std::vector<Nanos> times = arrival_times(wl, 3, 5000);
    for (std::size_t i = 1; i < times.size(); ++i) {
      ASSERT_LT(times[i - 1], times[i]);
    }
  }
}

TEST(DistributionsTest, PoissonMeanGapMatchesRate) {
  const WorkloadConfig wl = base_config();  // 100k rps -> 10us mean gap
  const std::vector<Nanos> times = arrival_times(wl, 11, 20'000);
  const double mean_gap =
      static_cast<double>(times.back() - times.front()) /
      static_cast<double>(times.size() - 1);
  EXPECT_NEAR(mean_gap, 10'000.0, 500.0);
}

TEST(DistributionsTest, MmppIsBurstier) {
  // Index of dispersion of counts in 1ms bins: ~1 for Poisson, > 1 for
  // the 2-state MMPP (rate alternates between 100k and 400k rps).
  const auto dispersion = [](const std::vector<Nanos>& times) {
    std::vector<int> bins;
    for (const Nanos t : times) {
      const auto bin = static_cast<std::size_t>(t / kMillisecond);
      if (bins.size() <= bin) bins.resize(bin + 1, 0);
      ++bins[bin];
    }
    double mean = 0;
    for (const int c : bins) mean += c;
    mean /= static_cast<double>(bins.size());
    double var = 0;
    for (const int c : bins) var += (c - mean) * (c - mean);
    var /= static_cast<double>(bins.size());
    return var / mean;
  };
  WorkloadConfig mmpp = base_config();
  mmpp.arrivals = ArrivalProcess::mmpp;
  EXPECT_LT(dispersion(arrival_times(base_config(), 5, 30'000)), 2.0);
  EXPECT_GT(dispersion(arrival_times(mmpp, 5, 30'000)), 3.0);
}

TEST(DistributionsTest, FixedSizesAreFixed) {
  const WorkloadConfig wl = base_config();
  for (const Bytes size : sizes(wl, 16 * kKiB, 9, 100)) {
    EXPECT_EQ(size, 16 * kKiB);
  }
}

TEST(DistributionsTest, LognormalMeanTracksRpcSize) {
  WorkloadConfig wl = base_config();
  wl.sizes = SizeDist::lognormal;
  wl.size_max = 4 * kMiB;  // keep clamping from biasing the mean
  const std::vector<Bytes> samples = sizes(wl, 16 * kKiB, 13, 50'000);
  double mean = 0;
  for (const Bytes s : samples) mean += static_cast<double>(s);
  mean /= static_cast<double>(samples.size());
  EXPECT_NEAR(mean, 16.0 * 1024.0, 0.1 * 16.0 * 1024.0);
}

TEST(DistributionsTest, BoundedParetoStaysInBounds) {
  WorkloadConfig wl = base_config();
  wl.sizes = SizeDist::bounded_pareto;
  wl.size_min = 128;
  wl.size_max = 64 * kKiB;
  Bytes max_seen = 0;
  for (const Bytes s : sizes(wl, 16 * kKiB, 17, 20'000)) {
    ASSERT_GE(s, wl.size_min);
    ASSERT_LE(s, wl.size_max);
    max_seen = std::max(max_seen, s);
  }
  // alpha=1.3 over a 512x range: the tail gets sampled.
  EXPECT_GT(max_seen, 32 * kKiB);
}

}  // namespace
}  // namespace hostsim::workload
