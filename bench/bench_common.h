// Shared helpers for the figure-reproduction binaries.
//
// The sweeps here are thin wrappers over the sweep:: campaign subsystem:
// points run in parallel on a thread pool (bit-identical to serial
// execution — see tests/sweep/runner_test.cpp) and honour three env knobs:
//   HOSTSIM_JOBS=N    worker threads (default: all hardware threads)
//   HOSTSIM_SHARDS=N  event-loop shards per point (default: 1 = serial;
//                     artifacts are bit-identical at any value)
//   HOSTSIM_CACHE=1   reuse .hostsim-cache/ results across invocations
// A HOSTSIM_JOBS/HOSTSIM_SHARDS that is not an integer >= 1 ("abc", "1.5",
// "", "0", "-2") exits 2 with a one-line message instead of running as
// the default.
#ifndef HOSTSIM_BENCH_BENCH_COMMON_H
#define HOSTSIM_BENCH_BENCH_COMMON_H

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "hostsim.h"
#include "tools/flags.h"


namespace hostsim::bench {

/// True when the binary was invoked with --quick — ctest smoke mode.
/// The bench prints the same tables, measured over a shorter window.
inline bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") return true;
  }
  return false;
}

/// Applies smoke-run timing to `config` when `quick` is set: warmup is
/// capped (never extended) and the measurement window shrinks so every
/// point still exercises the full datapath, just briefly.
inline ExperimentConfig quick_adjust(ExperimentConfig config, bool quick) {
  if (quick) {
    if (config.warmup > 2 * kMillisecond) config.warmup = 2 * kMillisecond;
    config.duration = 5 * kMillisecond;
  }
  return config;
}

/// Runner options from the environment (see header comment).
inline sweep::RunnerOptions env_runner_options() {
  sweep::RunnerOptions options;
  if (const char* jobs = std::getenv("HOSTSIM_JOBS")) {
    options.jobs =
        static_cast<int>(tools::int_flag(jobs, "HOSTSIM_JOBS", 1));
  }
  if (const char* shards = std::getenv("HOSTSIM_SHARDS")) {
    options.shards =
        static_cast<int>(tools::int_flag(shards, "HOSTSIM_SHARDS", 1));
  }
  const char* cache = std::getenv("HOSTSIM_CACHE");
  options.use_cache = cache != nullptr && cache[0] != '\0' &&
                      std::string_view(cache) != "0";
  return options;
}

/// One fig. 5-8 sweep: each point's flow count and metrics, in point
/// order.
struct FlowsSweep {
  std::vector<int> flows;
  std::vector<Metrics> results;
};

/// Runs the built-in flows campaign `name` (fig05_one_to_one,
/// fig06_incast, fig07_outcast or fig08_all_to_all) and prints the
/// fig. 5/6/7/8-style summary table.
inline FlowsSweep flows_sweep(std::string_view name) {
  const sweep::CampaignResult result =
      sweep::run_campaign(*sweep::find_campaign(name), env_runner_options());
  FlowsSweep sweep;
  for (const sweep::PointResult& point : result.points) {
    sweep.flows.push_back(point.point.config.traffic.flows);
    sweep.results.push_back(point.metrics);
  }

  Table table({"flows", "total (Gbps)", "tput/core (Gbps)",
               "tput/snd-core (Gbps)", "snd cores", "rcv cores", "rx miss",
               "mean skb (KB)"});
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    const Metrics& metrics = sweep.results[i];
    table.add_row({std::to_string(sweep.flows[i]),
                   Table::num(metrics.total_gbps),
                   Table::num(metrics.throughput_per_core_gbps),
                   Table::num(metrics.throughput_per_sender_core_gbps),
                   Table::num(metrics.sender_cores_used, 2),
                   Table::num(metrics.receiver_cores_used, 2),
                   Table::percent(metrics.rx_copy_miss_rate),
                   Table::num(metrics.mean_skb_bytes / 1024.0)});
  }
  table.print();
  return sweep;
}

/// Prints receiver- or sender-side Table-1 breakdowns per flow count.
inline void breakdown_table(const std::vector<int>& flow_counts,
                            const std::vector<Metrics>& results,
                            bool sender_side) {
  std::vector<std::string> headers = breakdown_headers();
  headers.insert(headers.begin(), "flows");
  Table table(headers);
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::vector<std::string> cells = breakdown_cells(
        sender_side ? results[i].sender_cycles : results[i].receiver_cycles);
    cells.insert(cells.begin(), std::to_string(flow_counts[i]));
    table.add_row(std::move(cells));
  }
  table.print();
}

}  // namespace hostsim::bench

#endif  // HOSTSIM_BENCH_BENCH_COMMON_H
