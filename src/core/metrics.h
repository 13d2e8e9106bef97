// Measurement results of one experiment run — the quantities the paper
// plots: throughput, throughput-per-core, per-category CPU breakdowns,
// cache miss rates, host latency, and skb size statistics.
#ifndef HOSTSIM_CORE_METRICS_H
#define HOSTSIM_CORE_METRICS_H

#include <array>
#include <cstdint>
#include <vector>

#include "cpu/cycle_account.h"
#include "obs/event_trace.h"
#include "obs/latency_monitor.h"
#include "obs/request_trace.h"
#include "obs/span.h"
#include "sim/fault_injector.h"
#include "sim/units.h"
#include "workload/request_record.h"

namespace hostsim {

struct Metrics {
  Nanos window = 0;

  // Throughput (application-level goodput, both hosts).
  Bytes app_bytes = 0;
  double total_gbps = 0.0;

  // CPU utilization, in cores (sum of per-core busy fractions).
  double sender_cores_used = 0.0;
  double receiver_cores_used = 0.0;
  // Busiest single core on each side — identifies the bottleneck side.
  double sender_peak_core_util = 0.0;
  double receiver_peak_core_util = 0.0;

  // The paper's headline metric: total throughput over total CPU
  // utilization at the bottleneck side.
  double throughput_per_core_gbps = 0.0;
  double throughput_per_sender_core_gbps = 0.0;    ///< outcast (§3.4)
  double throughput_per_receiver_core_gbps = 0.0;

  // Table-1 cycle breakdowns, aggregated over each host's cores.
  CycleAccount sender_cycles;
  CycleAccount receiver_cycles;

  // Cache behaviour.
  double rx_copy_miss_rate = 0.0;  ///< receiver data-copy LLC miss rate
  double tx_copy_miss_rate = 0.0;  ///< sender copy destination residency

  // Host processing latency, NAPI to start of data copy (fig. 3(f)).
  Nanos napi_to_copy_avg = 0;
  Nanos napi_to_copy_p99 = 0;

  // Post-GRO skb sizes at the receiver (fig. 8(c)).
  double mean_skb_bytes = 0.0;
  double skb_64kb_fraction = 0.0;

  // Protocol events (sender side unless noted).
  std::uint64_t retransmits = 0;
  std::uint64_t dup_acks_received = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t wire_drops = 0;

  // Fault injection (whole-run injector totals — flap/stall windows are
  // scheduled in absolute time, so they are not confined to the
  // measurement window like the per-host statistics above).
  FaultCounters faults;
  /// Corrupt frames dropped at checksum validation, both hosts, within
  /// the measurement window.
  std::uint64_t rx_csum_drops = 0;
  /// End-of-run invariant sweep: checks registered / violations found
  /// (a violation also fails the run via ensure()).
  std::uint64_t invariant_checks = 0;
  std::uint64_t invariant_violations = 0;

  // Memory subsystem.
  double sender_pageset_miss = 0.0;
  double receiver_pageset_miss = 0.0;

  // RPC workloads.
  std::uint64_t rpc_transactions = 0;
  double rpc_transactions_per_sec = 0.0;
  Nanos rpc_latency_p50 = 0;
  Nanos rpc_latency_p99 = 0;

  // Per-flow accounting (application-level bytes received at each
  // endpoint during the measurement window, receiver host first).
  struct FlowMetrics {
    int flow = 0;
    Bytes delivered = 0;
    double gbps = 0.0;
  };
  std::vector<FlowMetrics> flows;

  /// Jain's fairness index over per-flow throughput (1.0 = perfectly
  /// fair); 0 when there are no flows.
  double flow_fairness() const;

  // Per-host breakdown; populated only for >2-host cluster topologies so
  // two-host runs keep their historical JSON byte-for-byte.
  struct HostMetrics {
    int host = 0;
    double cores_used = 0.0;
    double peak_core_util = 0.0;
    Bytes app_bytes = 0;
    double gbps = 0.0;
  };
  std::vector<HostMetrics> per_host;

  // Switch-fabric rollup; `has_fabric` is set only when a buffered
  // switch (or a >2-host cluster) is in the path — a 2-host
  // pass-through switch reports nothing, keeping its metrics JSON
  // identical to the back-to-back testbed's.
  struct FabricMetrics {
    std::uint64_t forwarded = 0;
    std::uint64_t drops = 0;
    std::uint64_t ecn_marks = 0;
    std::uint64_t flap_drops = 0;
    Bytes peak_queue_bytes = 0;
  };
  bool has_fabric = false;
  FabricMetrics fabric;

  // Chaos/recovery rollup; `has_recovery` is set only when the run had a
  // crash/blackhole fault window or resilient RPC clients, so every
  // legacy configuration keeps its metrics JSON byte-for-byte.
  struct RecoveryMetrics {
    /// First instant after the last fault window ends at which a goodput
    /// slice reaches 90% of the pre-fault rate, measured from the end of
    /// that window; -1 when goodput never recovered within the run.
    Nanos time_to_recover = -1;
    /// Goodput over the ~2ms of slices preceding the first fault window
    /// (the recovery reference rate).
    double pre_fault_gbps = 0.0;
    std::uint64_t rpc_retries = 0;
    std::uint64_t rpc_timeouts = 0;       ///< deadline expirations
    std::uint64_t rpc_resets = 0;         ///< connection-reset failures
    std::uint64_t rpc_failed = 0;         ///< requests past their retry budget
    std::uint64_t breaker_opens = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t sockets_killed = 0;     ///< sockets aborted, all hosts
    Bytes bytes_destroyed = 0;            ///< rx bytes destroyed by aborts
  };
  bool has_recovery = false;
  RecoveryMetrics recovery;

  // Open-loop workload rollup; `has_workload` is set only for
  // Pattern::open_loop runs, so every legacy configuration keeps its
  // metrics JSON byte-for-byte.
  struct WorkloadMetrics {
    std::uint64_t offered = 0;    ///< requests arriving in the window
    std::uint64_t completed = 0;  ///< of those, completed before run end
    std::uint64_t incomplete = 0;
    double offered_rps = 0.0;
    double completed_rps = 0.0;
    // End-to-end request latency (arrival -> last leaf completion).
    Nanos latency_p50 = 0;
    Nanos latency_p95 = 0;
    Nanos latency_p99 = 0;
    Nanos latency_p999 = 0;
    // Queueing delay (arrival -> first leaf dispatched).
    Nanos queue_p50 = 0;
    Nanos queue_p99 = 0;
    Nanos first_byte_p99 = 0;  ///< arrival -> first response byte
    Nanos connect_p99 = 0;     ///< handshake latency (measurement window)
    Nanos leaf_p99 = 0;        ///< per-leaf RPC latency
    std::uint64_t fanout_leaves = 0;  ///< leaves completed in the window
    std::uint64_t slo_violations = 0; ///< completed past traffic SLO (if set)
    std::uint64_t conns_opened = 0;   ///< whole-run connection opens
    std::uint64_t conns_closed = 0;   ///< whole-run graceful closes
    std::uint64_t redispatches = 0;   ///< leaves replayed on a fresh conn
    // Whole-run churn counters summed (peaks: maxed) across host stacks.
    std::uint64_t syns_sent = 0;
    std::uint64_t syn_retries = 0;
    std::uint64_t syns_received = 0;
    std::uint64_t listen_overflows = 0;
    std::uint64_t accepts = 0;
    std::uint64_t connect_failures = 0;
    std::uint64_t time_wait_entered = 0;
    std::uint64_t time_wait_reaped = 0;
    std::uint64_t time_wait_peak = 0;
    std::uint64_t socket_table_peak = 0;
  };
  bool has_workload = false;
  WorkloadMetrics workload;

  /// Whole-run per-request lifecycle records (open-loop runs only).
  /// In memory only, like `trace`: metrics_to_json() skips them; the
  /// JSONL export path (write_records_jsonl) is the on-disk format.
  std::vector<workload::RequestRecord> workload_records;

  /// Merged flight-recorder trace from both hosts (empty unless
  /// ObsConfig::trace_capacity was set), time-ordered.
  std::vector<TraceRecord> trace;

  /// Per-stage pipeline latency breakdown (empty unless span tracing was
  /// on).  Like `trace`, kept in memory only: metrics_to_json() skips it,
  /// so obs-enabled runs serialize identically to disabled ones and can
  /// never poison the sweep cache.
  std::vector<obs::StageSummary> obs_stages;

  /// Per-request-class rollup from the joined request spans (empty
  /// unless request tracing was on).  In memory only, like obs_stages.
  std::vector<obs::RequestClassSummary> obs_classes;

  /// SLO-breach episodes from the continuous latency monitor (empty
  /// unless ObsConfig::slo_p99 was set).  In memory only.
  std::vector<obs::LatencyMonitor::SloEpisode> obs_slo;

  double sender_fraction(CpuCategory category) const {
    return sender_cycles.fraction(category);
  }
  double receiver_fraction(CpuCategory category) const {
    return receiver_cycles.fraction(category);
  }
};

}  // namespace hostsim

#endif  // HOSTSIM_CORE_METRICS_H
