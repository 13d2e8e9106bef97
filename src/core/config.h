// Experiment configuration: the paper-style optimization toggles, traffic
// patterns, and run parameters.
#ifndef HOSTSIM_CORE_CONFIG_H
#define HOSTSIM_CORE_CONFIG_H

#include <cstdint>
#include <string>

#include "app/rpc_resilience.h"
#include "cpu/cost_model.h"
#include "hw/llc_model.h"
#include "hw/numa_topology.h"
#include "net/stack_config.h"
#include "obs/obs_config.h"
#include "sim/fault_injector.h"
#include "sim/invariant_checker.h"
#include "sim/units.h"
#include "workload/workload_config.h"

namespace hostsim {

/// Workload shape (paper fig. 2 traffic patterns plus the §3.7 mixes).
enum class Pattern : std::uint8_t {
  single_flow,  ///< one long flow, one core each side
  one_to_one,   ///< n sender cores -> n receiver cores, one flow each
  incast,       ///< n sender cores -> 1 receiver core
  outcast,      ///< 1 sender core -> n receiver cores
  all_to_all,   ///< n x n flows between n cores on each side
  rpc_incast,   ///< n RPC clients -> one single-core RPC server
  mixed,        ///< 1 long flow + n 4KB RPCs sharing one core per side
  open_loop,    ///< open-loop generator over a connection pool (workload::)
};

std::string_view to_string(Pattern pattern);

struct TrafficConfig {
  Pattern pattern = Pattern::single_flow;
  int flows = 1;               ///< n in the pattern descriptions above
  Bytes rpc_size = 4 * kKiB;   ///< request == response size (rpc patterns)
  bool receiver_app_remote_numa = false;  ///< pin receiver app off-NIC-node
  /// Application-aware scheduling (paper §4): in the `mixed` pattern,
  /// place the short-flow applications on a separate core instead of
  /// sharing the long flow's core.
  bool segregate_mixed_cores = false;
  /// Receiver-side app quantum: recv() work between softirq preemption
  /// opportunities (the Core model is non-preemptive, so this sets the
  /// effective preemption granularity and thereby NAPI batch depth).
  Bytes app_chunk = 32 * kKiB;
  /// Sender-side write size (iPerf-style large writes; the tx path has
  /// no preemption-sensitive batching).
  Bytes sender_chunk = 128 * kKiB;
  /// Resilient-RPC policy for the rpc patterns (deadlines, retries,
  /// circuit breaker).  Disabled by default.
  RpcResilienceConfig resilience;
  /// Open-loop engine parameters (Pattern::open_loop: arrival process,
  /// size mix, churn, fan-out).  Disabled by default.  `flows` above is
  /// the connection-pool size.
  WorkloadConfig workload;
};

/// Cluster topology.  The default (2 hosts, no switch) is the paper's
/// back-to-back testbed: one wire, no switch, so historical runs stay
/// bit-identical.  Anything else puts per-host uplinks into an
/// output-queued Switch (hw/switch.h).  Traffic patterns expand by the
/// same rule either way (core/patterns.h).
struct TopologyConfig {
  int num_hosts = 2;
  /// Route the 2-host case through a Switch anyway (pass-through when
  /// `switch_buffer` is 0 — timing-identical to the back-to-back wire).
  bool use_switch = false;
  double port_gbps = 0.0;       ///< switch egress rate; 0 = link_gbps
  Bytes switch_buffer = 0;      ///< per-port FIFO bound; 0 = pass-through
  Bytes switch_ecn_bytes = 0;   ///< fabric CE-mark occupancy; 0 = off

  /// True for the plain back-to-back testbed (no switch in the path).
  bool degenerate() const { return num_hosts == 2 && !use_switch; }
};

struct ExperimentConfig {
  StackConfig stack;
  TrafficConfig traffic;
  CostModel cost;
  NumaTopology topo;
  LlcConfig llc;  ///< cache geometry (ablate DDIO partitioning here)
  TopologyConfig topology;
  double link_gbps = 100.0;
  double loss_rate = 0.0;      ///< in-network random drops (paper §3.6)
  Nanos ecn_threshold = 0;     ///< switch ECN marking threshold (DCTCP)
  Nanos warmup = 10 * kMillisecond;
  Nanos duration = 25 * kMillisecond;
  std::uint64_t seed = 1;

  /// Execution shards: 1 (default) runs the whole cluster on one event
  /// loop; N > 1 partitions the hosts over N loops advanced in parallel
  /// under conservative link-latency synchronization (see
  /// sim/sharded_executor.h).  An execution strategy like sweep --jobs,
  /// NOT an experiment parameter: deliberately excluded from
  /// config_to_json()/config_hash() (same convention as `obs`), and the
  /// artifacts are bit-identical across shard counts — pinned by
  /// tests/core/shard_pinning_test.
  int shards = 1;

  /// Fault-injection schedule (bursty loss, flaps, corruption, ring
  /// stalls, pool pressure).  An empty plan changes nothing: the
  /// injector is only constructed when `faults.any()`, so fault-free
  /// runs remain bit-identical to earlier versions for a given seed.
  FaultPlan faults;
  /// End-of-run invariant sweep (byte conservation, page-leak freedom,
  /// RTO liveness, event-queue sanity).  Fails the run on violation.
  bool check_invariants = true;
  /// Stall/livelock watchdog; period 0 (default) leaves it off.  Beware
  /// short periods under heavy loss: exponential RTO backoff makes
  /// multi-millisecond silent windows legitimate.
  WatchdogConfig watchdog;

  /// Observability (spans / sampler / exporters / flight recorder).
  /// Deliberately NOT part of config_to_json()/config_hash(): obs is a
  /// read-only lens, so two configs differing only here are the same
  /// experiment — sweep cache keys and artifacts stay bit-identical when
  /// it is enabled.
  ObsConfig obs;
};

}  // namespace hostsim

#endif  // HOSTSIM_CORE_CONFIG_H
