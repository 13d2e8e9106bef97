// Continuous latency monitoring.
//
// An always-on, fixed-shape monitor: every observed latency (pipeline
// stage durations from completed spans, end-to-end request latencies per
// class) lands in a log-linear histogram for the fixed time window
// containing its completion instant.  Windowed p50/p99 readouts answer
// "when did latency go bad", and a threshold flagger turns the window
// sequence into SLO-breach episodes with degradation-onset and recovery
// timestamps.
//
// Like every obs:: structure, monitors are per host — fed only by the
// host's own completions — and merged at harvest (Histogram::merge is
// order-independent), so sharded runs reproduce serial artifacts
// byte-for-byte.  Histograms are log-linear (sim/stats.h): memory per
// (series, window) cell is fixed regardless of sample count.
#ifndef HOSTSIM_OBS_LATENCY_MONITOR_H
#define HOSTSIM_OBS_LATENCY_MONITOR_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.h"
#include "sim/units.h"

namespace hostsim::obs {

class LatencyMonitor {
 public:
  LatencyMonitor() = default;

  void configure(Nanos window) { window_ = window; }

  bool enabled() const { return window_ > 0; }

  /// Records one latency observation completing at `now` under `series`
  /// (e.g. "stage.copy", "class.rpc").
  void record(std::string_view series, Nanos value, Nanos now);

  /// Folds `other`'s cells into this monitor (harvest-time merge).
  void merge(const LatencyMonitor& other);

  /// One windowed percentile readout.
  struct WindowStats {
    std::string series;
    Nanos window_start = 0;
    std::uint64_t count = 0;
    Nanos p50 = 0;
    Nanos p99 = 0;
  };

  /// All (series, window) cells, sorted by (series, window_start).
  std::vector<WindowStats> readout() const;

  /// An interval during which a series' windowed p99 exceeded the SLO.
  struct SloEpisode {
    std::string series;
    Nanos onset = 0;      ///< start of the first breaching window
    Nanos recover = -1;   ///< start of the first healed window; -1 = never
    Nanos worst_p99 = 0;  ///< worst windowed p99 inside the episode
  };

  /// Threshold flagger: scans each series' windows in order and returns
  /// the breach episodes against `slo_p99` (empty when slo_p99 <= 0).
  std::vector<SloEpisode> episodes(Nanos slo_p99) const;

 private:
  Nanos window_ = 0;
  /// (series, window index) -> histogram of values completing there;
  /// std::less<> finds a series by string_view, building no key.
  std::map<std::string, std::map<std::int64_t, Histogram>, std::less<>> cells_;
};

}  // namespace hostsim::obs

#endif  // HOSTSIM_OBS_LATENCY_MONITOR_H
