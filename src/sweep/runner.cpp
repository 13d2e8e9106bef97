#include "sweep/runner.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "core/experiment.h"
#include "core/serialize.h"
#include "sweep/cache.h"

namespace hostsim::sweep {

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

CampaignResult run_campaign(const Campaign& campaign,
                            const RunnerOptions& options) {
  CampaignResult result;
  result.campaign = campaign.name;
  result.description = campaign.description;

  const std::vector<CampaignPoint> points = campaign.expand();
  result.points.resize(points.size());

  const ResultCache cache(options.cache_dir);
  std::mutex progress_mutex;
  const auto report = [&](const CampaignPoint& point, bool from_cache) {
    if (!options.on_point) return;
    const std::lock_guard<std::mutex> lock(progress_mutex);
    options.on_point(point, from_cache);
  };

  // Cache probe pass (serial: small files, and it keeps hit accounting
  // simple); only misses go to the worker pool.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointResult& slot = result.points[i];
    slot.point = points[i];
    slot.config_hash = config_hash(points[i].config);
    if (options.use_cache) {
      if (std::optional<Metrics> cached = cache.load(points[i].config)) {
        slot.metrics = std::move(*cached);
        slot.from_cache = true;
        ++result.cache_hits;
        report(points[i], /*from_cache=*/true);
        continue;
      }
    }
    pending.push_back(i);
  }
  result.simulated = pending.size();

  const auto simulate = [&](std::size_t i) {
    PointResult& slot = result.points[i];
    // Each call builds a private EventLoop/RNG/testbed from the resolved
    // config, so concurrent points share no mutable state.
    ExperimentConfig config = slot.point.config;
    if (options.shards > 0) config.shards = options.shards;
    if (options.obs.enabled()) {
      // The runner's lens replaces the point's, except for the point's
      // own flight recorder.
      config.obs = options.obs;
      config.obs.trace_capacity = slot.point.config.obs.trace_capacity;
      // Artifact names keyed by config hash: stable across schedules,
      // unique per point.
      config.obs.out_stem = hash_hex(slot.config_hash);
    }
    slot.metrics = run_experiment(config);
    // Stored under the *canonical* config (obs never enters the hash,
    // and obs_stages never enters metrics_to_json, so instrumented and
    // plain runs share one cache entry with identical bytes).
    if (options.use_cache) cache.store(slot.point.config, slot.metrics);
    report(slot.point, /*from_cache=*/false);
  };

  const int jobs = resolve_jobs(options.jobs);
  if (jobs <= 1 || pending.size() <= 1) {
    for (std::size_t i : pending) simulate(i);
    return result;
  }

  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    while (true) {
      const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
      if (slot >= pending.size()) return;
      simulate(pending[slot]);
    }
  };
  std::vector<std::thread> threads;
  const std::size_t num_workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs), pending.size());
  threads.reserve(num_workers);
  for (std::size_t t = 0; t < num_workers; ++t) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();
  return result;
}

}  // namespace hostsim::sweep
