// Persistent result cache for experiment runs.
//
// Key = config_hash(resolved ExperimentConfig), which covers every
// outcome-relevant field: the traffic/stack knobs, the cost-model
// calibration, the fault plan, and the seed — plus the serialization
// schema version.  run_experiment() is a pure function of that key, so
// a hit can be returned verbatim; re-running a campaign only simulates
// points whose configuration (or the simulator's schema) changed.
//
// Entries are one JSON file per key under the cache directory
// (`.hostsim-cache/` by default), written atomically (temp file +
// rename) so parallel runners never observe torn entries.  Runs that
// enable the flight recorder bypass the cache: traces are debugging
// artifacts and are not serialized.
#ifndef HOSTSIM_SWEEP_CACHE_H
#define HOSTSIM_SWEEP_CACHE_H

#include <cstdint>
#include <optional>
#include <string>

#include "core/config.h"
#include "core/metrics.h"

namespace hostsim::sweep {

class ResultCache {
 public:
  explicit ResultCache(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  /// True when `config` is cacheable at all (no flight recorder).
  static bool cacheable(const ExperimentConfig& config) {
    return config.obs.trace_capacity == 0;
  }

  /// Loads the cached Metrics for `config`, or nullopt on miss, schema
  /// mismatch, or a corrupt/unreadable entry (treated as a miss).
  std::optional<Metrics> load(const ExperimentConfig& config) const;

  /// Stores a run result. Creates the cache directory on first use;
  /// failures are silent (a broken cache only costs re-simulation).
  void store(const ExperimentConfig& config, const Metrics& metrics) const;

  /// Path of the entry file for `config` (exists or not).
  std::string entry_path(const ExperimentConfig& config) const;

  /// Deletes every entry; returns the number of files removed.
  std::size_t clear() const;

 private:
  std::string dir_;
};

}  // namespace hostsim::sweep

#endif  // HOSTSIM_SWEEP_CACHE_H
