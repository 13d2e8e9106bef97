#include "core/experiment.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "core/patterns.h"
#include "core/testbed.h"
#include "hw/switch.h"
#include "obs/export.h"
#include "obs/hash.h"
#include "sim/contract.h"
#include "sim/invariant_checker.h"

namespace hostsim {
namespace {

struct HostSnapshot {
  std::vector<CycleAccount> core_accounts;
  std::vector<Nanos> core_busy;
  Bytes delivered = 0;
  std::map<int, Bytes> per_flow_delivered;
  std::uint64_t pageset_hits = 0;
  std::uint64_t pageset_misses = 0;
};

HostSnapshot snapshot(Host& host) {
  HostSnapshot snap;
  for (int id = 0; id < host.num_cores(); ++id) {
    snap.core_accounts.push_back(host.core(id).account());
    snap.core_busy.push_back(host.core(id).busy_time());
  }
  snap.delivered = host.stack().total_delivered_to_app();
  for (int flow : host.stack().flow_ids()) {
    snap.per_flow_delivered[flow] =
        host.stack().socket(flow).delivered_to_app();
  }
  snap.pageset_hits = host.allocator().pageset_stats().hits();
  snap.pageset_misses = host.allocator().pageset_stats().misses();
  return snap;
}

double cores_used(Host& host, const HostSnapshot& before, Nanos window,
                  double* peak = nullptr) {
  double used = 0.0;
  if (peak != nullptr) *peak = 0.0;
  for (int id = 0; id < host.num_cores(); ++id) {
    const Nanos busy =
        host.core(id).busy_time() - before.core_busy[static_cast<std::size_t>(id)];
    const double util = static_cast<double>(busy) / static_cast<double>(window);
    used += util;
    if (peak != nullptr && util > *peak) *peak = util;
  }
  return used;
}

CycleAccount cycles_delta(Host& host, const HostSnapshot& before) {
  CycleAccount total;
  for (int id = 0; id < host.num_cores(); ++id) {
    total.merge(host.core(id).account().delta_since(
        before.core_accounts[static_cast<std::size_t>(id)]));
  }
  return total;
}

Bytes delivered_delta(Host& host, const HostSnapshot& before) {
  return host.stack().total_delivered_to_app() - before.delivered;
}

}  // namespace

Metrics Experiment::run() {
  require(config_.warmup >= 0 && config_.duration > 0,
          "warmup/duration must be sane");
  Testbed testbed(config_);
  Workload workload = build_workload(testbed, config_.traffic);
  workload.start();
  if (testbed.observer() != nullptr) {
    // Every gauge is registered by now (hosts in the Cluster ctor,
    // flows by the workload builder); the sampler's read-only ticks may
    // start interleaving with the datapath.
    testbed.observer()->start_sampler();
  }

  // Chaos/recovery instrumentation: fixed goodput slices sampled across
  // the whole run, from which time-to-recover is computed after the
  // fact.  The sampler events are read-only (no RNG, no state), so
  // enabling them cannot perturb the datapath schedule.
  const bool wants_recovery = !config_.faults.host_crashes.empty() ||
                              !config_.faults.port_blackholes.empty() ||
                              config_.traffic.resilience.enabled;
  constexpr Nanos kGoodputSlice = 250 * kMicrosecond;
  struct GoodputSlice {
    Nanos end = 0;
    std::uint64_t delivered = 0;  ///< cumulative app bytes at slice end
  };
  // Sampled per shard (each shard's slice event reads only its own
  // hosts, so it is race-free mid-round) and summed at harvest; with one
  // shard this is exactly the legacy whole-cluster sample.
  const int num_shards = testbed.num_shards();
  std::vector<Nanos> slice_ends;
  std::vector<std::vector<std::uint64_t>> shard_slices;
  if (wants_recovery) {
    const Nanos end_time = config_.warmup + config_.duration;
    for (Nanos t = kGoodputSlice; t <= end_time; t += kGoodputSlice) {
      slice_ends.push_back(t);
    }
    shard_slices.assign(
        static_cast<std::size_t>(num_shards),
        std::vector<std::uint64_t>(slice_ends.size(), 0));
    for (int s = 0; s < num_shards; ++s) {
      std::vector<std::uint64_t>* samples =
          &shard_slices[static_cast<std::size_t>(s)];
      for (std::size_t i = 0; i < slice_ends.size(); ++i) {
        testbed.shard_loop(s).schedule_at(
            slice_ends[i], [&testbed, samples, s, i] {
              (*samples)[i] = testbed.app_progress(s);
            });
      }
    }
  }

  // The watchdog polls at the executor's heartbeat and takes its storm
  // guard's trips, at every shard count.
  Watchdog watchdog(config_.watchdog);
  if (config_.watchdog.enabled()) {
    watchdog.set_progress_probe([&testbed] { return testbed.app_progress(); });
    watchdog.set_activity_probe(
        [&testbed] { return testbed.transfers_outstanding(); });
    watchdog.arm(testbed.executor(), config_.warmup + config_.duration);
  }

  testbed.run_until(config_.warmup);
  // Hosts 0..H-2 are the sending side, host H-1 the receiving side
  // (degenerate testbed: host 0 = "sender", host 1 = "receiver").
  const int num_hosts = testbed.num_hosts();
  const int rx_host = num_hosts - 1;
  std::vector<HostSnapshot> before;
  before.reserve(static_cast<std::size_t>(num_hosts));
  for (int h = 0; h < num_hosts; ++h) {
    before.push_back(snapshot(testbed.host(h)));
  }
  const std::uint64_t rpc_before = workload.rpc_transactions();
  const std::uint64_t drops_before = testbed.total_wire_drops();
  workload.reset_rpc_latency();
  for (int h = 0; h < num_hosts; ++h) {
    testbed.host(h).stack().begin_measurement();
  }

  testbed.run_until(config_.warmup + config_.duration);

  Metrics metrics;
  metrics.window = config_.duration;
  for (int h = 0; h < num_hosts; ++h) {
    metrics.app_bytes +=
        delivered_delta(testbed.host(h), before[static_cast<std::size_t>(h)]);
  }
  metrics.total_gbps = to_gbps(metrics.app_bytes, metrics.window);

  // Sending-side aggregates sum over every sender host; the per-side
  // peak is the busiest single core anywhere on that side.
  for (int h = 0; h < rx_host; ++h) {
    double peak = 0.0;
    metrics.sender_cores_used += cores_used(
        testbed.host(h), before[static_cast<std::size_t>(h)], metrics.window,
        &peak);
    metrics.sender_peak_core_util =
        std::max(metrics.sender_peak_core_util, peak);
  }
  metrics.receiver_cores_used =
      cores_used(testbed.host(rx_host),
                 before[static_cast<std::size_t>(rx_host)], metrics.window,
                 &metrics.receiver_peak_core_util);

  // The paper's throughput-per-core divides total throughput by the CPU
  // utilization of the bottleneck side — the side whose busiest core is
  // most saturated (an outcast's one pegged sender core is the
  // bottleneck even if 24 lightly-loaded receiver cores sum to more).
  const double bottleneck =
      metrics.sender_peak_core_util > metrics.receiver_peak_core_util
          ? metrics.sender_cores_used
          : metrics.receiver_cores_used;
  if (bottleneck > 0) {
    metrics.throughput_per_core_gbps = metrics.total_gbps / bottleneck;
  }
  if (metrics.sender_cores_used > 0) {
    metrics.throughput_per_sender_core_gbps =
        metrics.total_gbps / metrics.sender_cores_used;
  }
  if (metrics.receiver_cores_used > 0) {
    metrics.throughput_per_receiver_core_gbps =
        metrics.total_gbps / metrics.receiver_cores_used;
  }

  for (int h = 0; h < rx_host; ++h) {
    metrics.sender_cycles.merge(
        cycles_delta(testbed.host(h), before[static_cast<std::size_t>(h)]));
  }
  metrics.receiver_cycles = cycles_delta(
      testbed.host(rx_host), before[static_cast<std::size_t>(rx_host)]);

  const HostStats& rx_stats = testbed.host(rx_host).stack().stats();
  metrics.rx_copy_miss_rate = rx_stats.copy_reads.miss_rate();
  metrics.napi_to_copy_avg =
      static_cast<Nanos>(rx_stats.napi_to_copy.mean());
  metrics.napi_to_copy_p99 = rx_stats.napi_to_copy.percentile(0.99);
  metrics.mean_skb_bytes = rx_stats.skb_sizes.mean();
  metrics.skb_64kb_fraction = rx_stats.skb_sizes.fraction_at_least(60 * kKiB);

  // Sending-side protocol counters and cache rates, summed across the
  // sender hosts (one host in the degenerate testbed, so unchanged).
  HitRate tx_copy;
  std::uint64_t tx_pageset_hits = 0;
  std::uint64_t tx_pageset_misses = 0;
  for (int h = 0; h < rx_host; ++h) {
    const HostStats& tx_stats = testbed.host(h).stack().stats();
    metrics.retransmits += tx_stats.retransmits;
    metrics.dup_acks_received += tx_stats.dup_acks;
    metrics.acks_received += tx_stats.acks_received;
    tx_copy.hit(tx_stats.sender_copy.hits());
    tx_copy.miss(tx_stats.sender_copy.misses());
    const HostSnapshot& b = before[static_cast<std::size_t>(h)];
    const HitRate& pageset = testbed.host(h).allocator().pageset_stats();
    tx_pageset_hits += pageset.hits() - b.pageset_hits;
    tx_pageset_misses += pageset.misses() - b.pageset_misses;
  }
  metrics.tx_copy_miss_rate = tx_copy.miss_rate();
  metrics.wire_drops = testbed.total_wire_drops() - drops_before;

  const std::uint64_t tx_pageset_total = tx_pageset_hits + tx_pageset_misses;
  metrics.sender_pageset_miss =
      tx_pageset_total ? static_cast<double>(tx_pageset_misses) /
                             static_cast<double>(tx_pageset_total)
                       : 0.0;
  {
    const HostSnapshot& b = before[static_cast<std::size_t>(rx_host)];
    const HitRate& pageset =
        testbed.host(rx_host).allocator().pageset_stats();
    const std::uint64_t hits = pageset.hits() - b.pageset_hits;
    const std::uint64_t misses = pageset.misses() - b.pageset_misses;
    const std::uint64_t total = hits + misses;
    metrics.receiver_pageset_miss =
        total ? static_cast<double>(misses) / static_cast<double>(total) : 0.0;
  }

  metrics.rpc_transactions = workload.rpc_transactions() - rpc_before;
  metrics.rpc_transactions_per_sec =
      static_cast<double>(metrics.rpc_transactions) / to_seconds(metrics.window);
  const Histogram rpc_latency = workload.rpc_latency();
  metrics.rpc_latency_p50 = rpc_latency.percentile(0.5);
  metrics.rpc_latency_p99 = rpc_latency.percentile(0.99);

  // Per-flow accounting: bytes the flow delivered to applications on
  // either endpoint host during the window (responses count at the
  // sending host).
  for (int flow = 0; flow < testbed.flows_created(); ++flow) {
    const Cluster::FlowRoute& route = testbed.flow_route(flow);
    const HostSnapshot& dst_before =
        before[static_cast<std::size_t>(route.dst_host)];
    const HostSnapshot& src_before =
        before[static_cast<std::size_t>(route.src_host)];
    Metrics::FlowMetrics fm;
    fm.flow = flow;
    // A reconnect destroys both sockets of the old flow mid-run; its
    // metrics row then reports only what it delivered while alive
    // (nothing if it died before the window, since the counters are
    // gone with the socket).
    auto before_it = dst_before.per_flow_delivered.find(flow);
    const Bytes rcv_before =
        before_it != dst_before.per_flow_delivered.end() ? before_it->second
                                                         : 0;
    if (const TransportSocket* rx_socket =
            testbed.host(route.dst_host).stack().find_socket(flow)) {
      fm.delivered = rx_socket->delivered_to_app() - rcv_before;
    }
    auto snd_it = src_before.per_flow_delivered.find(flow);
    if (snd_it != src_before.per_flow_delivered.end()) {
      if (const TransportSocket* tx_socket =
              testbed.host(route.src_host).stack().find_socket(flow)) {
        fm.delivered += tx_socket->delivered_to_app() - snd_it->second;
      }
    }
    fm.gbps = to_gbps(fm.delivered, metrics.window);
    metrics.flows.push_back(fm);
  }

  if (config_.obs.trace_capacity > 0) {
    for (int h = 0; h < num_hosts; ++h) {
      const auto host_trace = testbed.host(h).stack().tracer().snapshot();
      metrics.trace.insert(metrics.trace.end(), host_trace.begin(),
                           host_trace.end());
    }
    if (testbed.fabric() != nullptr) {
      // Serial recording order in both modes: the single ring when
      // serial, the per-port rings merged on the delivery key when
      // sharded (see Switch::trace_snapshot).
      const auto fabric_trace = testbed.fabric()->trace_snapshot();
      metrics.trace.insert(metrics.trace.end(), fabric_trace.begin(),
                           fabric_trace.end());
    }
    // Per-host snapshots are time-monotone, but the cross-host
    // concatenation is not; tie-break equal timestamps by host so the
    // merged order is independent of host iteration order.
    std::stable_sort(metrics.trace.begin(), metrics.trace.end(),
              [](const TraceRecord& a, const TraceRecord& b) {
                return a.at != b.at ? a.at < b.at : a.host < b.host;
              });
  }

  // Cluster-only sections, gated so two-host runs (back-to-back or
  // pass-through switch) keep their historical metrics byte-for-byte.
  if (num_hosts > 2) {
    for (int h = 0; h < num_hosts; ++h) {
      const HostSnapshot& b = before[static_cast<std::size_t>(h)];
      Metrics::HostMetrics hm;
      hm.host = h;
      hm.cores_used = cores_used(testbed.host(h), b, metrics.window,
                                 &hm.peak_core_util);
      hm.app_bytes = delivered_delta(testbed.host(h), b);
      hm.gbps = to_gbps(hm.app_bytes, metrics.window);
      metrics.per_host.push_back(hm);
    }
  }
  if (testbed.fabric() != nullptr &&
      (num_hosts > 2 || config_.topology.switch_buffer > 0)) {
    metrics.has_fabric = true;
    metrics.fabric.forwarded = testbed.fabric()->forwarded();
    metrics.fabric.drops = testbed.fabric()->dropped();
    metrics.fabric.ecn_marks = testbed.fabric()->ecn_marked();
    metrics.fabric.flap_drops = testbed.fabric()->flap_drops();
    metrics.fabric.peak_queue_bytes = testbed.fabric()->peak_queue_bytes();
  }

  if (testbed.has_faults()) {
    metrics.faults = testbed.merged_fault_counters();
  }
  metrics.faults.watchdog_trips += watchdog.trips();
  metrics.rx_csum_drops = 0;
  for (int h = 0; h < num_hosts; ++h) {
    metrics.rx_csum_drops += testbed.host(h).stack().stats().rx_csum_drops;
  }

  if (wants_recovery) {
    metrics.has_recovery = true;
    // Whole-cluster goodput slices: the per-shard samples summed.
    std::vector<GoodputSlice> slices;
    slices.reserve(slice_ends.size());
    for (std::size_t i = 0; i < slice_ends.size(); ++i) {
      std::uint64_t delivered = 0;
      for (int s = 0; s < num_shards; ++s) {
        delivered += shard_slices[static_cast<std::size_t>(s)][i];
      }
      slices.push_back({slice_ends[i], delivered});
    }
    // Fault window bounds: recovery is measured from the instant the
    // last crash/blackhole window closes.
    Nanos first_fault = -1;
    Nanos fault_end = -1;
    for (const HostCrash& crash : config_.faults.host_crashes) {
      if (first_fault < 0 || crash.at < first_fault) first_fault = crash.at;
      fault_end = std::max(fault_end, crash.at + crash.down_for);
    }
    for (const PortBlackhole& hole : config_.faults.port_blackholes) {
      if (first_fault < 0 || hole.at < first_fault) first_fault = hole.at;
      fault_end = std::max(fault_end, hole.at + hole.duration);
    }
    if (first_fault >= 0 && !slices.empty()) {
      // Reference rate: goodput over the (up to) 2ms of slices ending
      // at or before the first fault window opens.
      constexpr Nanos kPreFaultSpan = 2 * kMillisecond;
      int pre_end = -1;
      for (std::size_t i = 0; i < slices.size(); ++i) {
        if (slices[i].end > first_fault) break;
        pre_end = static_cast<int>(i);
      }
      if (pre_end >= 0) {
        const int span_slices = std::min<int>(
            pre_end + 1, static_cast<int>(kPreFaultSpan / kGoodputSlice));
        const int pre_start = pre_end - span_slices;  // -1: from time zero
        const Nanos start_t = pre_start >= 0 ? slices[static_cast<std::size_t>(
                                                          pre_start)].end
                                             : 0;
        const std::uint64_t start_bytes =
            pre_start >= 0
                ? slices[static_cast<std::size_t>(pre_start)].delivered
                : 0;
        const GoodputSlice& last = slices[static_cast<std::size_t>(pre_end)];
        if (last.end > start_t) {
          metrics.recovery.pre_fault_gbps =
              to_gbps(static_cast<Bytes>(last.delivered - start_bytes),
                      last.end - start_t);
        }
      }
      // First slice that lies entirely after the fault window and moves
      // bytes at >= 90% of the pre-fault rate.
      const double target = 0.9 * metrics.recovery.pre_fault_gbps;
      for (std::size_t i = 1; i < slices.size(); ++i) {
        if (slices[i - 1].end < fault_end) continue;
        const double rate = to_gbps(
            static_cast<Bytes>(slices[i].delivered - slices[i - 1].delivered),
            kGoodputSlice);
        if (rate >= target) {
          metrics.recovery.time_to_recover = slices[i].end - fault_end;
          break;
        }
      }
    }
    const RpcClient::Counters totals = workload.rpc_recovery_totals();
    metrics.recovery.rpc_retries = totals.retries;
    metrics.recovery.rpc_timeouts = totals.timeouts;
    metrics.recovery.rpc_resets = totals.resets;
    metrics.recovery.rpc_failed = totals.failed;
    metrics.recovery.breaker_opens = totals.breaker_opens;
    metrics.recovery.reconnects = totals.reconnects;
    for (int h = 0; h < num_hosts; ++h) {
      const Stack& stack = testbed.host(h).stack();
      metrics.recovery.sockets_killed += stack.sockets_aborted();
      metrics.recovery.bytes_destroyed += stack.bytes_destroyed();
    }
  }

  if (workload.open_loop != nullptr) {
    workload.open_loop->harvest(config_.warmup,
                                config_.warmup + config_.duration, metrics);
  }

  if (obs::Observer* o = testbed.observer()) {
    // In-memory breakdowns (never serialized — see metrics_to_json), then
    // the on-disk artifacts.  Exported before the invariant sweep so a
    // failing run still leaves its trace behind for debugging.
    metrics.obs_stages = o->stage_summary();
    std::vector<obs::RequestSpan> requests;
    if (o->tracing()) {
      requests = o->merged_requests();
      if (testbed.fabric() != nullptr) {
        // Switch hops ride along as fabric-host spans.  The snapshot
        // order is canonical ((enqueue, port)), so index-derived span
        // ids are stable across runs and shard counts.
        std::uint64_t hop_seq = 0;
        const std::vector<Switch::HopRecord> hops =
            testbed.fabric()->hop_snapshot();
        requests.reserve(requests.size() + hops.size());
        for (const Switch::HopRecord& hop : hops) {
          obs::RequestSpan span;
          span.span_id = obs::mix64(0x686f70ULL ^ hop_seq++);  // "hop"
          if (span.span_id == 0) span.span_id = 1;
          span.kind = obs::ReqKind::hop;
          span.host = kFabricTraceHost;
          span.flow = hop.flow;
          span.key = hop.port;
          span.start = hop.enqueue;
          span.end = hop.deliver;
          span.bytes = hop.bytes;
          requests.push_back(std::move(span));
        }
      }
      obs::join_request_spans(requests);
      metrics.obs_classes = obs::summarize_request_classes(requests);
    }
    if (config_.obs.slo_p99 > 0) {
      metrics.obs_slo = o->merged_latency().episodes(config_.obs.slo_p99);
    }
    if (!config_.obs.out_dir.empty()) {
      obs::write_obs_artifacts(*o, metrics.trace, requests, config_.obs);
    }
  }

  if (config_.check_invariants) {
    InvariantChecker checker;
    testbed.register_invariants(checker);
    const auto violations = checker.run();
    metrics.invariant_checks = checker.num_checks();
    metrics.invariant_violations = violations.size();
    if (!violations.empty()) {
      std::fputs(InvariantChecker::format(violations).c_str(), stderr);
      ensure(violations.empty(), "end-of-run invariant sweep failed");
    }
  }
  return metrics;
}

Metrics run_experiment(const ExperimentConfig& config) {
  return Experiment(config).run();
}

}  // namespace hostsim
