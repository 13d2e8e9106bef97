// hostsim_cli — run any experiment from the command line.
//
//   $ hostsim_cli --pattern=incast --flows=8
//   $ hostsim_cli --pattern=single --no-arfs --ring=256 --rxbuf-kb=3200
//   $ hostsim_cli --pattern=mixed --flows=16 --segregate --csv
//   $ hostsim_cli --pattern=rpc --flows=16 --rpc-kb=64 --cc=bbr
//
// Prints a human-readable summary, or one CSV row (--csv) for scripting
// sweeps.  Run with --help for all flags.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/patterns.h"
#include "core/report.h"
#include "flags.h"
#include "sim/fault_spec.h"

namespace {

using namespace hostsim;
using namespace hostsim::tools;

[[noreturn]] void usage(int exit_code) {
  std::printf(R"(hostsim_cli — host network stack performance model

workload:
  --pattern=NAME      single | one-to-one | incast | outcast | all-to-all
                      | rpc | mixed | open-loop  (default: single)
  --flows=N           flows / clients / n-by-n scale      (default: 1;
                      mixed: short flows, 0 = the long flow alone)
  --rpc-kb=N          RPC request=response size in KB     (default: 4)
  --remote-numa       pin the receiver app to a NIC-remote NUMA node
  --segregate         mixed pattern: short flows on their own core

open-loop generator (--pattern=open-loop; host 0 drives the backends):
  --open-loop-rate=RPS  mean request arrival rate     (default: 50000)
  --arrivals=PROC     poisson | mmpp (bursty)         (default: poisson)
  --size-dist=DIST    fixed | lognormal | pareto      (default: fixed;
                      mean is --rpc-kb)
  --fan-out=K         leaf RPCs per request, gated on the slowest
  --churn=P           close + re-handshake a connection with prob P
                      after a completed request
  --slo-us=N          count completions slower than N us as violations
  --workload-jsonl=FILE  write per-request lifecycle records as JSONL

stack:
  --no-tso --no-gso --no-gro --no-jumbo --no-arfs --no-dca
  --iommu --lro --tx-zerocopy --rx-zerocopy --delayed-ack
  --steering=MODE     rss | rps | rfs  (fallback when aRFS is off)
  --transport=KIND    tcp | homa (receiver-driven messages; default: tcp)
  --cc=ALGO           cubic | dctcp | bbr                 (default: cubic)
  --ring=N            NIC rx descriptors per queue        (default: 1024)
  --rxbuf-kb=N        fixed TCP rx buffer; 0 = autotune   (default: 0)

network:
  --gbps=N            link rate                           (default: 100)
  --loss=P            per-frame drop probability          (default: 0)

topology (default: two hosts on a point-to-point link):
  --hosts=N           cluster size; hosts 0..N-2 send, host N-1
                      receives; N>2 implies a switch      (default: 2)
  --switch            route even a 2-host run through the switch
  --switch-buffer-kb=N  per-egress-port buffer; 0 = pass-through
  --switch-ecn-kb=N   CE-mark when a port queue reaches N KB
  --port-gbps=N       switch port rate (default: link --gbps)

faults (all deterministic for a given --seed):
  --ge=AVG[,BURST[,PBAD]]  Gilbert-Elliott bursty loss at average rate
                      AVG, mean bursts of BURST frames (default 10) at
                      in-burst drop probability PBAD (default 0.5)
  --flap=AT,DUR[,L]   link outage at AT ms for DUR ms on host-link L
                      (every link when omitted)           (repeatable)
  --corrupt=P         deliver-but-checksum-fail probability
  --stall=AT,DUR[,Q[,H]]  rx-ring stall at AT ms for DUR ms on queue Q
                      of host H (all queues / hosts when omitted)
                      (repeatable)
  --pressure=AT,DUR[,DENY]  page-pool pressure window; rx page
                      allocations fail with prob DENY (default 1)
  --crash=H,AT,DOWN   host H's NIC goes dark and its sockets die at
                      AT ms; it restarts after DOWN ms    (repeatable)
  --blackhole=P,AT,DUR  switch egress toward port P silently dropped
                      at AT ms for DUR ms                 (repeatable)
  --watchdog-ms=N     trip the run after ~3 silent windows of N ms
  --no-invariants     skip the end-of-run invariant sweep

resilience (rpc / mixed patterns):
  --retries=N         resilient clients: per-request deadline, retry
                      budget N, jittered backoff, circuit breaker
  --rpc-deadline-ms=N per-request deadline (default: 5, implies
                      --retries=3 when not given)

run:
  --warmup-ms=N       (default: 10)    --duration-ms=N    (default: 25)
  --seed=N            (default: 1)
  --shards=N          parallel event-loop shards over the cluster's
                      hosts (default: 1 = serial; output bit-identical
                      at any value — sharding is an execution strategy)
  --csv               print one CSV row (+ header with --csv-header)
  --breakdown         also print the Table-1 CPU breakdowns
  --trace=N           dump the last N flight-recorder events as CSV
  --help

observability:
  --obs-spans=RATE    sample RATE of payload frames into pipeline spans
                      (0..1; deterministic in the seed)
  --obs-trace=RATE    sample RATE of requests into distributed request
                      traces (0..1; deterministic in the seed)
  --obs-sample-us=N   time-series sampler period in microseconds
  --obs-window-us=N   continuous-latency monitor window (0 disables)
  --obs-slo-us=N      flag windows whose p99 exceeds N microseconds
  --obs-out=DIR       write DIR/obs.trace.json (Perfetto / chrome://tracing),
                      DIR/obs.timeseries.csv, DIR/obs.latency.csv, and —
                      with --obs-trace — DIR/obs.spans.jsonl
)");
  std::exit(exit_code);
}

/// Applies one check's result (a fault-spec parse, a fault target, a
/// pattern's flow bound): a failed check exits 2 with its one-line
/// actionable message instead of the generic usage.
void exit_on_error(const std::optional<std::string>& error) {
  if (error) {
    std::fprintf(stderr, "%s\n", error->c_str());
    std::exit(2);
  }
}

Pattern parse_pattern(std::string_view name) {
  if (name == "single" || name == "single-flow") return Pattern::single_flow;
  if (name == "one-to-one") return Pattern::one_to_one;
  if (name == "incast") return Pattern::incast;
  if (name == "outcast") return Pattern::outcast;
  if (name == "all-to-all") return Pattern::all_to_all;
  if (name == "rpc" || name == "rpc-incast") return Pattern::rpc_incast;
  if (name == "mixed") return Pattern::mixed;
  if (name == "open-loop") return Pattern::open_loop;
  std::fprintf(stderr, "unknown pattern '%.*s'\n",
               static_cast<int>(name.size()), name.data());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig config;
  bool csv = false;
  bool csv_header = false;
  bool breakdown = false;
  std::string workload_jsonl;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(0);
    else if (arg == "--remote-numa") config.traffic.receiver_app_remote_numa = true;
    else if (arg == "--segregate") config.traffic.segregate_mixed_cores = true;
    else if (arg == "--no-tso") config.stack.tso = false;
    else if (arg == "--no-gso") config.stack.gso = false;
    else if (arg == "--no-gro") config.stack.gro = false;
    else if (arg == "--no-jumbo") config.stack.jumbo = false;
    else if (arg == "--no-arfs") config.stack.arfs = false;
    else if (arg == "--no-dca") config.stack.dca = false;
    else if (arg == "--iommu") config.stack.iommu = true;
    else if (arg == "--lro") { config.stack.lro = true; config.stack.gro = false; }
    else if (arg == "--tx-zerocopy") config.stack.tx_zerocopy = true;
    else if (arg == "--rx-zerocopy") config.stack.rx_zerocopy = true;
    else if (arg == "--delayed-ack") config.stack.delayed_ack = true;
    else if (arg == "--csv") csv = true;
    else if (arg == "--csv-header") { csv = true; csv_header = true; }
    else if (arg == "--breakdown") breakdown = true;
    else if (auto v = flag_value(arg, "--pattern")) {
      config.traffic.pattern = parse_pattern(*v);
      if (config.traffic.pattern == Pattern::open_loop) {
        config.traffic.workload.enabled = true;
      }
    } else if (auto v = flag_value(arg, "--flows")) {
      config.traffic.flows = static_cast<int>(int_flag(*v, "--flows", 0));
    } else if (auto v = flag_value(arg, "--rpc-kb")) {
      config.traffic.rpc_size = int_flag(*v, "--rpc-kb", 1) * kKiB;
    } else if (auto v = flag_value(arg, "--open-loop-rate")) {
      config.traffic.workload.enabled = true;
      config.traffic.workload.rate_rps =
          positive_flag(*v, "--open-loop-rate");
    } else if (auto v = flag_value(arg, "--arrivals")) {
      config.traffic.workload.enabled = true;
      if (*v == "poisson") config.traffic.workload.arrivals = ArrivalProcess::poisson;
      else if (*v == "mmpp") config.traffic.workload.arrivals = ArrivalProcess::mmpp;
      else invalid_flag("--arrivals", *v, "poisson | mmpp");
    } else if (auto v = flag_value(arg, "--size-dist")) {
      config.traffic.workload.enabled = true;
      if (*v == "fixed") config.traffic.workload.sizes = SizeDist::fixed;
      else if (*v == "lognormal") config.traffic.workload.sizes = SizeDist::lognormal;
      else if (*v == "pareto") config.traffic.workload.sizes = SizeDist::bounded_pareto;
      else invalid_flag("--size-dist", *v, "fixed | lognormal | pareto");
    } else if (auto v = flag_value(arg, "--fan-out")) {
      config.traffic.workload.enabled = true;
      config.traffic.workload.fan_out =
          static_cast<int>(int_flag(*v, "--fan-out", 1));
    } else if (auto v = flag_value(arg, "--churn")) {
      config.traffic.workload.enabled = true;
      config.traffic.workload.churn_prob = num_flag(*v, "--churn", 0, 1);
    } else if (auto v = flag_value(arg, "--slo-us")) {
      config.traffic.workload.enabled = true;
      config.traffic.workload.slo =
          int_flag(*v, "--slo-us", 0) * kMicrosecond;
    } else if (auto v = flag_value(arg, "--workload-jsonl")) {
      workload_jsonl = std::string(*v);
    } else if (auto v = flag_value(arg, "--steering")) {
      if (*v == "rss") config.stack.fallback_steering = SteeringMode::rss;
      else if (*v == "rps") config.stack.fallback_steering = SteeringMode::rps;
      else if (*v == "rfs") config.stack.fallback_steering = SteeringMode::rfs;
      else invalid_flag("--steering", *v, "rss | rps | rfs");
    } else if (auto v = flag_value(arg, "--transport")) {
      if (*v == "tcp") config.stack.transport.kind = TransportKind::tcp;
      else if (*v == "homa") config.stack.transport.kind = TransportKind::homa;
      else invalid_flag("--transport", *v, "tcp | homa");
    } else if (auto v = flag_value(arg, "--cc")) {
      if (*v == "cubic") config.stack.cc = CcAlgo::cubic;
      else if (*v == "dctcp") config.stack.cc = CcAlgo::dctcp;
      else if (*v == "bbr") config.stack.cc = CcAlgo::bbr;
      else invalid_flag("--cc", *v, "cubic | dctcp | bbr");
    } else if (auto v = flag_value(arg, "--ring")) {
      config.stack.nic_ring_size =
          static_cast<int>(int_flag(*v, "--ring", 1));
    } else if (auto v = flag_value(arg, "--rxbuf-kb")) {
      config.stack.tcp_rx_buf = int_flag(*v, "--rxbuf-kb", 0) * kKiB;
    } else if (auto v = flag_value(arg, "--gbps")) {
      config.link_gbps = positive_flag(*v, "--gbps");
    } else if (auto v = flag_value(arg, "--loss")) {
      config.loss_rate = num_flag(*v, "--loss", 0, 1);
    } else if (arg == "--switch") {
      config.topology.use_switch = true;
    } else if (auto v = flag_value(arg, "--hosts")) {
      config.topology.num_hosts =
          static_cast<int>(int_flag(*v, "--hosts", 2));
      if (config.topology.num_hosts > 2) config.topology.use_switch = true;
    } else if (auto v = flag_value(arg, "--switch-buffer-kb")) {
      config.topology.switch_buffer =
          int_flag(*v, "--switch-buffer-kb", 0) * kKiB;
      config.topology.use_switch = true;
    } else if (auto v = flag_value(arg, "--switch-ecn-kb")) {
      config.topology.switch_ecn_bytes =
          int_flag(*v, "--switch-ecn-kb", 0) * kKiB;
      config.topology.use_switch = true;
    } else if (auto v = flag_value(arg, "--port-gbps")) {
      config.topology.port_gbps = num_flag(*v, "--port-gbps", 0);
      config.topology.use_switch = true;
    } else if (auto v = flag_value(arg, "--ge")) {
      exit_on_error(parse_ge_spec(*v, config.faults));
    } else if (auto v = flag_value(arg, "--flap")) {
      exit_on_error(parse_flap_spec(*v, config.faults));
    } else if (auto v = flag_value(arg, "--corrupt")) {
      config.faults.corrupt_rate = num_flag(*v, "--corrupt", 0, 1);
    } else if (auto v = flag_value(arg, "--stall")) {
      exit_on_error(parse_stall_spec(*v, config.faults));
    } else if (auto v = flag_value(arg, "--pressure")) {
      exit_on_error(parse_pressure_spec(*v, config.faults));
    } else if (auto v = flag_value(arg, "--crash")) {
      exit_on_error(parse_crash_spec(*v, config.faults));
    } else if (auto v = flag_value(arg, "--blackhole")) {
      exit_on_error(parse_blackhole_spec(*v, config.faults));
    } else if (auto v = flag_value(arg, "--retries")) {
      config.traffic.resilience.enabled = true;
      config.traffic.resilience.max_retries =
          static_cast<int>(int_flag(*v, "--retries", 0));
    } else if (auto v = flag_value(arg, "--rpc-deadline-ms")) {
      config.traffic.resilience.enabled = true;
      config.traffic.resilience.deadline =
          int_flag(*v, "--rpc-deadline-ms", 1) * kMillisecond;
    } else if (auto v = flag_value(arg, "--watchdog-ms")) {
      config.watchdog.period =
          int_flag(*v, "--watchdog-ms", 0) * kMillisecond;
    } else if (arg == "--no-invariants") {
      config.check_invariants = false;
    } else if (auto v = flag_value(arg, "--warmup-ms")) {
      config.warmup = int_flag(*v, "--warmup-ms", 0) * kMillisecond;
    } else if (auto v = flag_value(arg, "--duration-ms")) {
      config.duration = int_flag(*v, "--duration-ms", 1) * kMillisecond;
    } else if (auto v = flag_value(arg, "--seed")) {
      config.seed = static_cast<std::uint64_t>(int_flag(*v, "--seed"));
    } else if (auto v = flag_value(arg, "--shards")) {
      config.shards = static_cast<int>(int_flag(*v, "--shards", 1));
    } else if (auto v = flag_value(arg, "--trace")) {
      config.obs.trace_capacity =
          static_cast<std::size_t>(int_flag(*v, "--trace", 0));
    } else if (auto v = flag_value(arg, "--obs-spans")) {
      config.obs.span_rate = num_flag(*v, "--obs-spans", 0, 1);
    } else if (auto v = flag_value(arg, "--obs-trace")) {
      config.obs.trace_rate = num_flag(*v, "--obs-trace", 0, 1);
    } else if (auto v = flag_value(arg, "--obs-sample-us")) {
      config.obs.sample_period =
          int_flag(*v, "--obs-sample-us", 0) * kMicrosecond;
    } else if (auto v = flag_value(arg, "--obs-window-us")) {
      config.obs.latency_window =
          int_flag(*v, "--obs-window-us", 0) * kMicrosecond;
    } else if (auto v = flag_value(arg, "--obs-slo-us")) {
      config.obs.slo_p99 = int_flag(*v, "--obs-slo-us", 0) * kMicrosecond;
    } else if (auto v = flag_value(arg, "--obs-out")) {
      config.obs.out_dir = std::string(*v);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      usage(2);
    }
  }

  if (config.traffic.pattern == Pattern::single_flow) config.traffic.flows = 1;
  // Zero flows means something only to the mixed pattern: its long flow
  // runs alone.
  if (config.traffic.flows == 0 && config.traffic.pattern != Pattern::mixed) {
    invalid_flag("--flows", "0",
                 "an integer >= 1; 0 only with --pattern=mixed");
  }
  exit_on_error(check_fault_targets(config.faults, config.topology.num_hosts));
  exit_on_error(check_flows_fit(config.traffic, config.topology.num_hosts,
                                config.topo.num_cores()));
  if (config.obs.enabled() && !config.obs.out_dir.empty()) {
    create_dir_or_exit(config.obs.out_dir, "obs");
  }

  const Metrics metrics = run_experiment(config);

  if (!workload_jsonl.empty()) {
    std::ofstream file(workload_jsonl, std::ios::binary);
    workload::write_records_jsonl(metrics.workload_records, file);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", workload_jsonl.c_str());
      return 1;
    }
  }

  if (csv) {
    if (csv_header) {
      std::printf("%s\n", metrics_csv_comment(config).c_str());
      std::printf("%s\n", metrics_csv_header().c_str());
    }
    std::printf("%s\n", metrics_csv_row(metrics).c_str());
    return 0;
  }

  std::printf("pattern %s, flows %d, stack %s%s\n",
              std::string(to_string(config.traffic.pattern)).c_str(),
              config.traffic.flows, config.stack.label().c_str(),
              config.loss_rate > 0 ? " (lossy)" : "");
  std::printf("  total throughput:       %8.1f Gbps\n", metrics.total_gbps);
  std::printf("  throughput-per-core:    %8.1f Gbps\n",
              metrics.throughput_per_core_gbps);
  std::printf("  sender / receiver CPU:  %8.2f / %.2f cores\n",
              metrics.sender_cores_used, metrics.receiver_cores_used);
  std::printf("  rx copy miss rate:      %8.1f %%\n",
              metrics.rx_copy_miss_rate * 100);
  std::printf("  napi->copy avg / p99:   %8.1f / %.1f us\n",
              static_cast<double>(metrics.napi_to_copy_avg) / 1000,
              static_cast<double>(metrics.napi_to_copy_p99) / 1000);
  if (metrics.rpc_transactions > 0) {
    std::printf("  rpc transactions/s:     %8.0f\n",
                metrics.rpc_transactions_per_sec);
  }
  if (metrics.retransmits > 0) {
    std::printf("  retransmits:            %8llu\n",
                static_cast<unsigned long long>(metrics.retransmits));
  }
  print_fault_summary(metrics);
  print_recovery_summary(metrics);
  print_workload_summary(metrics);
  print_cluster_summary(metrics);
  print_obs_summary(metrics);
  if (!config.obs.out_dir.empty()) {
    std::string artifacts = config.obs.out_dir + "/" + config.obs.out_stem +
                            ".trace.json, " + config.obs.out_dir + "/" +
                            config.obs.out_stem + ".timeseries.csv";
    if (config.obs.tracing_enabled()) {
      artifacts += ", " + config.obs.out_dir + "/" + config.obs.out_stem +
                   ".spans.jsonl";
    }
    if (config.obs.monitor_enabled()) {
      artifacts += ", " + config.obs.out_dir + "/" + config.obs.out_stem +
                   ".latency.csv";
    }
    std::printf("obs artifacts: %s\n", artifacts.c_str());
  }
  if (!metrics.trace.empty()) {
    print_section("flight recorder (newest events)");
    // std::cout stays synchronized with stdio, so the rows land in order.
    write_trace_csv(std::cout, metrics.trace);
  }
  if (breakdown) {
    print_section("sender CPU breakdown");
    Table snd(breakdown_headers());
    snd.add_row(breakdown_cells(metrics.sender_cycles));
    snd.print();
    print_section("receiver CPU breakdown");
    Table rcv(breakdown_headers());
    rcv.add_row(breakdown_cells(metrics.receiver_cycles));
    rcv.print();
  }
  return 0;
}
