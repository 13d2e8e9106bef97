// hostsim_sweep — run experiment campaigns in parallel, with result
// caching, machine-readable artifacts, and a regression gate.
//
//   $ hostsim_sweep list
//   $ hostsim_sweep run fig05_one_to_one --jobs=8
//   $ hostsim_sweep run all --out=artifacts
//   $ hostsim_sweep run fig05_one_to_one --write-baseline=baselines
//   $ hostsim_sweep run fig05_one_to_one --baseline=baselines/fig05_one_to_one.json
//   $ hostsim_sweep gate artifacts/fig05_one_to_one.json baselines/fig05_one_to_one.json
//
// `run --baseline` (and `gate`) exit 1 on any out-of-tolerance
// deviation, which is what CI hangs a merge decision on, and 2 when an
// input is unreadable or not a campaign artifact.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.h"
#include "core/serialize.h"
#include "flags.h"
#include "workload/request_record.h"
#include "sweep/artifact.h"
#include "sweep/baseline.h"
#include "sweep/campaigns.h"
#include "sweep/runner.h"

namespace {

using namespace hostsim;
using namespace hostsim::tools;

[[noreturn]] void usage(int exit_code) {
  std::printf(R"(hostsim_sweep — parallel experiment campaigns

subcommands:
  list                          show every built-in campaign
  run <name>|all [options]      execute campaign(s), write artifacts
  gate <result.json> <baseline.json> [options]
                                diff two artifacts, exit 1 on violation
                                (2 when a file is not an artifact)

run options:
  --jobs=N            worker threads (default: all hardware threads)
  --serial            shorthand for --jobs=1
  --shards=N          event-loop shards per simulated point (default:
                      HOSTSIM_SHARDS, else 1 = serial).  Artifacts and
                      cache keys are bit-identical at any value
  --quick             smoke timing: cap warmup at 2ms, 5ms measurement
                      (changes config hashes; use a dedicated cache dir)
  --no-cache          always simulate; do not read or write the cache
  --cache-dir=DIR     result cache location (default: .hostsim-cache)
  --out=DIR           artifact output directory (default: artifacts)
  --baseline=FILE     gate the run against FILE after writing artifacts
  --write-baseline=DIR    also copy the artifact JSON to DIR/<campaign>.json
  --quiet             no per-point progress lines
  --obs-spans=RATE    pipeline-span sampling for simulated points (0..1)
  --obs-sample-us=N   time-series sampler period in microseconds
  --obs-out=DIR       per-point Perfetto JSON + time-series CSV under
                      DIR/<campaign>/<config-hash>.* (cache-served
                      points write nothing; obs never enters cache keys)
  --workload-out=DIR  per-point open-loop request records as JSONL under
                      DIR/<campaign>/<config-hash>.jsonl (simulated
                      points only: records live in memory, not the cache)

gate options (also apply to run --baseline):
  --rel=R             default relative tolerance (default: 0 — exact,
                      the simulator is deterministic)
  --abs=A             default absolute slack        (default: 1e-9)
  --tol=METRIC=R      per-metric relative tolerance (repeatable),
                      e.g. --tol=total_gbps=0.02
  --allow-config-drift   compare metrics even when config hashes moved
)");
  std::exit(exit_code);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// An input that is not a campaign artifact is a usage error (exit 2,
/// one line on stderr), never a regression (exit 1).
int bad_artifact(const sweep::GateReport& report) {
  std::fprintf(stderr, "gate: %s\n", report.error.c_str());
  return 2;
}

int cmd_list() {
  Table table({"campaign", "points", "description"});
  for (const sweep::Campaign& campaign : sweep::builtin_campaigns()) {
    table.add_row({campaign.name, std::to_string(campaign.num_points()),
                   campaign.description});
  }
  table.print();
  return 0;
}

void print_campaign_table(const sweep::CampaignResult& result) {
  Table table({"point", "total (Gbps)", "tput/core (Gbps)", "snd cores",
               "rcv cores", "retransmits", "cached"});
  for (const sweep::PointResult& point : result.points) {
    table.add_row({point.point.label(), Table::num(point.metrics.total_gbps),
                   Table::num(point.metrics.throughput_per_core_gbps),
                   Table::num(point.metrics.sender_cores_used, 2),
                   Table::num(point.metrics.receiver_cores_used, 2),
                   std::to_string(point.metrics.retransmits),
                   point.from_cache ? "yes" : "no"});
  }
  table.print();
}

struct RunArgs {
  std::vector<std::string> campaigns;
  sweep::RunnerOptions runner;
  sweep::GateOptions gate;
  std::string out_dir = "artifacts";
  std::string baseline_path;
  std::string write_baseline_path;
  std::string obs_out;       ///< base dir for per-point obs artifacts
  std::string workload_out;  ///< base dir for per-point request JSONL
  bool quick = false;
  bool quiet = false;
};

bool parse_gate_flag(std::string_view arg, sweep::GateOptions* gate) {
  if (auto v = flag_value(arg, "--rel")) {
    gate->fallback.rel = num_flag(*v, "--rel");
    return true;
  }
  if (auto v = flag_value(arg, "--abs")) {
    gate->fallback.abs = num_flag(*v, "--abs");
    return true;
  }
  if (auto v = flag_value(arg, "--tol")) {
    const std::size_t eq = v->rfind('=');
    if (eq == std::string_view::npos || eq == 0) usage(2);
    const std::string metric(v->substr(0, eq));
    gate->per_metric[metric] = {num_flag(v->substr(eq + 1), "--tol"),
                                gate->fallback.abs};
    return true;
  }
  if (arg == "--allow-config-drift") {
    gate->allow_config_drift = true;
    return true;
  }
  return false;
}

int cmd_run(const std::vector<std::string_view>& args) {
  RunArgs run;
  // Env default, consistent with the bench harness's HOSTSIM_JOBS: the
  // flag below overrides it.  Shards are an execution strategy — they
  // never enter config hashes, so the cache and artifacts are identical
  // at any value.
  if (const char* shards = std::getenv("HOSTSIM_SHARDS")) {
    run.runner.shards =
        static_cast<int>(int_flag(shards, "HOSTSIM_SHARDS", 1));
  }
  for (std::string_view arg : args) {
    if (arg == "--no-cache") run.runner.use_cache = false;
    else if (arg == "--serial") run.runner.jobs = 1;
    else if (arg == "--quick") run.quick = true;
    else if (arg == "--quiet") run.quiet = true;
    else if (auto v = flag_value(arg, "--jobs")) {
      run.runner.jobs = static_cast<int>(int_flag(*v, "--jobs", 1));
    } else if (auto v = flag_value(arg, "--shards")) {
      run.runner.shards = static_cast<int>(int_flag(*v, "--shards", 1));
    } else if (auto v = flag_value(arg, "--cache-dir")) {
      run.runner.cache_dir = std::string(*v);
    } else if (auto v = flag_value(arg, "--out")) {
      run.out_dir = std::string(*v);
    } else if (auto v = flag_value(arg, "--baseline")) {
      run.baseline_path = std::string(*v);
    } else if (auto v = flag_value(arg, "--write-baseline")) {
      run.write_baseline_path = std::string(*v);
    } else if (auto v = flag_value(arg, "--obs-spans")) {
      run.runner.obs.span_rate = num_flag(*v, "--obs-spans", 0, 1);
    } else if (auto v = flag_value(arg, "--obs-sample-us")) {
      run.runner.obs.sample_period =
          int_flag(*v, "--obs-sample-us", 0) * kMicrosecond;
    } else if (auto v = flag_value(arg, "--obs-out")) {
      run.obs_out = std::string(*v);
    } else if (auto v = flag_value(arg, "--workload-out")) {
      run.workload_out = std::string(*v);
    } else if (parse_gate_flag(arg, &run.gate)) {
      // handled
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag '%.*s'\n",
                   static_cast<int>(arg.size()), arg.data());
      usage(2);
    } else {
      run.campaigns.emplace_back(arg);
    }
  }
  if (run.campaigns.empty()) usage(2);

  std::vector<sweep::Campaign> selected;
  if (run.campaigns.size() == 1 && run.campaigns[0] == "all") {
    selected = sweep::builtin_campaigns();
  } else {
    for (const std::string& name : run.campaigns) {
      std::optional<sweep::Campaign> campaign = sweep::find_campaign(name);
      if (!campaign) {
        std::fprintf(stderr,
                     "unknown campaign '%s' (try: hostsim_sweep list)\n",
                     name.c_str());
        return 2;
      }
      selected.push_back(std::move(*campaign));
    }
  }

  // Output directories that cannot be created fail before any point runs.
  if (run.runner.obs.enabled() && !run.obs_out.empty()) {
    create_dir_or_exit(run.obs_out, "obs");
  }
  create_dir_or_exit(run.out_dir, "artifact");

  // Smoke timing is a *config* change (shared with the bench binaries'
  // --quick), applied to the base before expansion so every point — and
  // its cache key — reflects the shortened run.
  if (run.quick) {
    for (sweep::Campaign& campaign : selected) {
      if (campaign.base.warmup > 2 * kMillisecond) {
        campaign.base.warmup = 2 * kMillisecond;
      }
      campaign.base.duration = 5 * kMillisecond;
    }
  }

  if (!run.quiet) {
    run.runner.on_point = [](const sweep::CampaignPoint& point,
                             bool from_cache) {
      std::printf("  %-40s %s\n", point.label().c_str(),
                  from_cache ? "[cache]" : "[simulated]");
      std::fflush(stdout);
    };
  }

  bool gate_failed = false;
  for (const sweep::Campaign& campaign : selected) {
    print_section(campaign.name + " (" + std::to_string(campaign.num_points()) +
                  " points, jobs=" +
                  std::to_string(sweep::resolve_jobs(run.runner.jobs)) + ")");
    sweep::RunnerOptions options = run.runner;
    if (!run.obs_out.empty()) {
      options.obs.out_dir =
          (std::filesystem::path(run.obs_out) / campaign.name).string();
    }
    const sweep::CampaignResult result =
        sweep::run_campaign(campaign, options);
    print_campaign_table(result);
    std::printf("  cache: %zu hit(s), %zu simulated\n", result.cache_hits,
                result.simulated);

    const sweep::ArtifactPaths paths =
        sweep::write_campaign_artifacts(result, run.out_dir);
    std::printf("  artifacts: %s, %s\n", paths.json.c_str(),
                paths.csv.c_str());

    if (!run.workload_out.empty()) {
      const std::filesystem::path dir =
          std::filesystem::path(run.workload_out) / campaign.name;
      create_dir_or_exit(dir.string(), "workload");
      std::size_t written = 0;
      for (const sweep::PointResult& point : result.points) {
        if (point.metrics.workload_records.empty()) continue;
        const std::string target =
            (dir / (hash_hex(point.config_hash) + ".jsonl")).string();
        std::ofstream records(target, std::ios::binary);
        workload::write_records_jsonl(point.metrics.workload_records,
                                      records);
        if (!records.good()) {
          std::fprintf(stderr, "cannot write '%s'\n", target.c_str());
          return 2;
        }
        ++written;
      }
      std::printf("  workload records: %zu point file(s) under %s\n",
                  written, dir.string().c_str());
    }

    if (!run.write_baseline_path.empty()) {
      create_dir_or_exit(run.write_baseline_path, "baseline");
      const std::string target =
          (std::filesystem::path(run.write_baseline_path) /
           (campaign.name + ".json"))
              .string();
      std::ofstream out(target, std::ios::trunc);
      out << sweep::campaign_to_json(result, sweep::git_describe()) << '\n';
      if (!out.good()) {
        std::fprintf(stderr, "cannot write baseline '%s'\n", target.c_str());
        return 2;
      }
      std::printf("  baseline written: %s\n", target.c_str());
    }

    if (!run.baseline_path.empty()) {
      const sweep::GateReport report = sweep::gate_against_baseline(
          sweep::campaign_to_json(result, sweep::git_describe()),
          slurp(run.baseline_path), run.gate);
      if (!report.error.empty()) return bad_artifact(report);
      std::fputs(sweep::format_gate_report(report).c_str(), stdout);
      if (!report.ok()) gate_failed = true;
    }
  }
  return gate_failed ? 1 : 0;
}

int cmd_gate(const std::vector<std::string_view>& args) {
  sweep::GateOptions options;
  std::vector<std::string> files;
  for (std::string_view arg : args) {
    if (parse_gate_flag(arg, &options)) continue;
    if (!arg.empty() && arg[0] == '-') usage(2);
    files.emplace_back(arg);
  }
  if (files.size() != 2) usage(2);
  const sweep::GateReport report =
      sweep::gate_against_baseline(slurp(files[0]), slurp(files[1]), options);
  if (!report.error.empty()) return bad_artifact(report);
  std::fputs(sweep::format_gate_report(report).c_str(), stdout);
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(2);
  const std::string_view command = argv[1];
  std::vector<std::string_view> args(argv + 2, argv + argc);
  if (command == "--help" || command == "-h" || command == "help") usage(0);
  if (command == "list") return cmd_list();
  if (command == "run") return cmd_run(args);
  if (command == "gate") return cmd_gate(args);
  std::fprintf(stderr, "unknown subcommand '%.*s'\n",
               static_cast<int>(command.size()), command.data());
  usage(2);
}
