// Parallel campaign execution.
//
// Each grid point is an independent run_experiment() call — a pure
// function of its resolved config — with its own EventLoop, RNG, and
// testbed, so points can execute on any thread in any order and still
// produce bit-identical Metrics to a serial run.  Results are stored at
// the point's expansion index, which makes output ordering deterministic
// regardless of completion order.
#ifndef HOSTSIM_SWEEP_RUNNER_H
#define HOSTSIM_SWEEP_RUNNER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "obs/obs_config.h"
#include "sweep/campaign.h"

namespace hostsim::sweep {

struct RunnerOptions {
  /// Worker threads; <= 0 selects std::thread::hardware_concurrency().
  int jobs = 0;
  /// Execution shards per simulated point (ExperimentConfig::shards);
  /// <= 0 keeps each point's own setting.  Like `jobs` and `obs`, this
  /// is an execution strategy: shards never enters config_hash, so the
  /// cache keys — and the artifacts — are identical at any value.
  int shards = 0;
  bool use_cache = true;
  std::string cache_dir = ".hostsim-cache";
  /// Progress callback, invoked under a lock as each point completes
  /// (in completion order, which is nondeterministic under jobs > 1).
  std::function<void(const CampaignPoint&, bool from_cache)> on_point;
  /// Observability applied to every *simulated* point (cache-served
  /// points write no artifacts — their obs output already exists or was
  /// never requested).  Per-point artifacts land in obs.out_dir named by
  /// the point's config hash, so parallel schedules produce identical
  /// files.  The obs section never enters config_hash, so enabling it
  /// cannot invalidate (or pollute) the cache.  Applied only when
  /// obs.enabled(); its trace_capacity is ignored — each point keeps its
  /// own flight-recorder setting.
  ObsConfig obs;
};

struct PointResult {
  CampaignPoint point;
  std::uint64_t config_hash = 0;
  bool from_cache = false;
  Metrics metrics;
};

struct CampaignResult {
  std::string campaign;
  std::string description;
  std::vector<PointResult> points;  ///< in campaign expansion order
  std::size_t cache_hits = 0;
  std::size_t simulated = 0;
};

/// Expands and executes `campaign`. Cached points are served from disk;
/// the rest are simulated on a pool of `options.jobs` threads.
CampaignResult run_campaign(const Campaign& campaign,
                            const RunnerOptions& options = {});

/// The effective worker count for a jobs setting (>= 1).
int resolve_jobs(int jobs);

}  // namespace hostsim::sweep

#endif  // HOSTSIM_SWEEP_RUNNER_H
