// An N-host cluster: per-host uplink Links into an output-queued Switch,
// generalizing the paper's two-server testbed to real cross-host
// topologies (incast drops, fabric ECN, tail latency).
//
// The degenerate configuration — 2 hosts, no switch — takes the *exact*
// legacy construction path (loop, one back-to-back wire, sender host,
// receiver host, then the fault injector iff the plan is non-empty), so
// every historical figure, campaign result, and RNG stream is preserved
// bit-for-bit.  `Testbed` (core/testbed.h) is now an alias for
// this class.  Workloads expand over both shapes by one rule
// (core/patterns.h).
//
// Cluster mode wires each host's NIC to Side::a of its own uplink Link;
// Side::b forwards every frame, through the deterministic delivery band
// below, to the switch ingress for that port.  Switch egress
// delivers straight into the destination NIC: in pass-through mode at
// the ingress instant (so a 2-host pass-through cluster is
// timing-identical to the back-to-back wire — the uplink already charged
// serialization + propagation), in buffered mode after FIFO queueing,
// egress serialization at the port rate, and the downlink propagation.
//
// Execution: the hosts are partitioned over K = config.shards event
// loops — host h on shard h*K/H — advanced by one ShardedExecutor (shard
// 0 on the calling thread, one worker thread per other shard) under
// conservative link-latency synchronization (sim/sharded_executor.h).
// A serial run is the K = 1 case of the same executor, whose threads also
// build each shard's hosts and run their page-leak checks.
// Everything a host touches (its cores, NIC,
// stack, uplink Link, and the switch egress port toward it) lives on its
// shard's loop; the only cross-shard traffic is frames leaving a Link's
// switch side, which travel through per-(src,dst)-shard channels
// carrying a (send time, per-link sequence) ordering key, so the merged
// execution order — and therefore every artifact — is bit-identical to
// the serial run (pinned by tests/core/shard_pinning_test).  There is
// deliberately no cluster-wide loop() accessor: host-side code schedules
// through the owning shard's loop (host(i).loop()), and run control goes
// through run_until()/run_to_completion() below.
//
// Convention: host H-1 is the receiver/server host, hosts 0..H-2 send
// toward it (matching the legacy sender=0 / receiver=1 layout).
#ifndef HOSTSIM_CORE_CLUSTER_H
#define HOSTSIM_CORE_CLUSTER_H

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/host.h"
#include "hw/link.h"
#include "hw/switch.h"
#include "net/transport.h"
#include "obs/observer.h"
#include "sim/event_fifo.h"
#include "sim/event_loop.h"
#include "sim/fault_injector.h"
#include "sim/invariant_checker.h"
#include "sim/sharded_executor.h"

namespace hostsim {

class Cluster {
 public:
  explicit Cluster(const ExperimentConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ExperimentConfig& config() const { return config_; }

  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  Host& host(int index) { return *hosts_.at(static_cast<std::size_t>(index)); }

  // --- Execution ----------------------------------------------------------

  /// Number of execution shards (1 = serial).
  int num_shards() const { return static_cast<int>(loops_.size()); }

  /// The shard owning `host` and its loop.
  int shard_of_host(int host) const {
    return shard_of_host_.at(static_cast<std::size_t>(host));
  }
  EventLoop& shard_loop(int shard) {
    return *loops_.at(static_cast<std::size_t>(shard));
  }
  /// Host indices owned by `shard` (ascending).
  const std::vector<int>& shard_hosts(int shard) const {
    return shard_hosts_.at(static_cast<std::size_t>(shard));
  }

  /// Runs every host's events with timestamp <= `deadline` and advances
  /// all clocks to it, in the executor's rounds.
  void run_until(Nanos deadline);

  /// Drains every loop (and every cross-shard channel) completely.
  void run_to_completion();

  /// Current simulated time (identical across shards between runs).
  Nanos now() const { return loops_[0]->now(); }

  /// Events executed / still pending, summed over the shards.
  std::uint64_t events_executed() const;
  std::size_t events_pending() const;

  /// Forks a stream from the run's root RNG in construction order —
  /// identical to the serial fork sequence regardless of shard count.
  /// Workload builders must use this instead of reaching for a loop.
  Rng fork_rng() { return loops_[0]->rng().fork(); }

  /// The run's orchestrator, at every shard count.  A Watchdog arms on
  /// it (heartbeat polls and the per-shard storm guard).
  ShardedExecutor& executor() { return *executor_; }

  // --- Topology -----------------------------------------------------------

  /// Legacy two-server view: host 0 sends, the last host receives.
  Host& sender() { return host(0); }
  Host& receiver() { return host(num_hosts() - 1); }

  /// Host `index`'s uplink (degenerate topology: the single wire).
  Link& link(int index) {
    return *links_.at(static_cast<std::size_t>(index));
  }

  /// The switch fabric; nullptr in the degenerate back-to-back topology.
  Switch* fabric() { return fabric_.get(); }

  /// The run's fault injector; nullptr when the plan is empty (the
  /// injector is only constructed — and its RNG stream only forked —
  /// when faults are configured, preserving fault-free determinism).
  /// Sharded runs hold one injector per shard; this returns shard 0's —
  /// use merged_fault_counters() for run-wide accounting.
  FaultInjector* faults() {
    return shard_faults_.empty() ? nullptr : shard_faults_[0].get();
  }
  FaultInjector* shard_faults(int shard) {
    return shard_faults_.empty()
               ? nullptr
               : shard_faults_.at(static_cast<std::size_t>(shard)).get();
  }
  bool has_faults() const { return !shard_faults_.empty(); }

  /// Field-wise sum of every shard's fault counters; equals the single
  /// injector's counters in serial mode.
  FaultCounters merged_fault_counters() const;

  /// The run's observability hub; nullptr unless config.obs enables it.
  /// Constructed after the datapath (it forks no RNG and schedules
  /// nothing until start_sampler()), so instrumented runs execute the
  /// identical simulation.
  obs::Observer* observer() { return obs_.get(); }

  /// Registers the cluster's end-of-run invariants on `checker`:
  /// per-flow byte conservation, per-host page-leak freedom (naming
  /// leaked page ids), sender RTO liveness, and event-queue sanity.
  void register_invariants(InvariantChecker& checker);

  /// Monotone application-progress counter (bytes delivered to apps on
  /// every host); the natural Watchdog progress probe.
  std::uint64_t app_progress() const;

  /// Shard-local slice of the progress counter (hosts on `shard` only);
  /// safe to read from that shard's own events mid-round.
  std::uint64_t app_progress(int shard) const;

  /// True when any socket still has unacknowledged or unsent buffered
  /// data; the natural Watchdog activity probe.
  bool transfers_outstanding() const;

  /// One end of a flow at cluster granularity.
  struct FlowEndpoint {
    int host = 0;
    int core = 0;
  };

  /// Endpoints of one established flow.
  struct FlowEndpoints {
    TransportSocket* at_sender;
    TransportSocket* at_receiver;
  };

  /// Which hosts a flow connects (src sends data toward dst), and the
  /// application core pinned at each end (needed to address teardown
  /// and reconnect tasks to the right core).
  struct FlowRoute {
    int src_host = 0;
    int dst_host = 1;
    int src_core = 0;
    int dst_core = 0;
  };

  /// Creates both endpoints of a flow between two (host, core) points
  /// and installs IRQ steering: with aRFS, each NIC steers to the local
  /// application's core; without it, steering follows the paper's
  /// methodology — a deterministic NIC-remote core per flow
  /// (`explicit_irq_mapping`, §3.1), or the hash fallback when the
  /// steering table would not fit (§3.5).
  FlowEndpoints make_flow(FlowEndpoint src, FlowEndpoint dst,
                          bool explicit_irq_mapping = true);

  int flows_created() const { return next_flow_; }
  const FlowRoute& flow_route(int flow) const {
    return routes_.at(static_cast<std::size_t>(flow));
  }

  /// Opens a *handshaking* flow (open-loop workload engine): allocates a
  /// fresh flow id and route, creates only the client-side socket, and
  /// starts the SYN handshake against `dst.host`'s listener (which
  /// creates the server socket on accept — see Stack::listen).  Unlike
  /// make_flow, the connection is not usable until `on_done(true)` runs;
  /// on SYN-retry exhaustion `on_done(false)` fires and the caller must
  /// abort + destroy the orphaned client socket.  Churn flows steer via
  /// aRFS when enabled and the hash fallback otherwise (they never claim
  /// explicit-RSS slots), and register no per-flow gauges.
  int open_flow(FlowEndpoint src, FlowEndpoint dst, Nanos syn_retry,
                int max_syn_retries, Stack::ConnectFn on_done);

  /// Replaces a dead connection with a fresh one between the same
  /// endpoints, under a *new* flow id — stale in-flight frames for the
  /// old id must not corrupt the new connection's sequence space (they
  /// are answered with RSTs / dropped instead).  The old sockets are
  /// aborted (if still live) and removed from both socket tables: the
  /// local end synchronously (the caller runs in a task on the source
  /// app core, passed as `core`), the remote end via a posted task.
  /// Not supported in receiver-driven mode.
  FlowEndpoints reconnect_flow(Core& core, int flow);

  /// In-network drops across every link plus the switch (degenerate
  /// topology: the single wire's Bernoulli/GE drops, as before).
  std::uint64_t total_wire_drops() const;

 private:
  void build_degenerate();
  void build_cluster();
  /// One injector per shard over shard_fault_plan(s), wired into that
  /// shard's links and NICs; nothing when the plan is empty.  Requires
  /// every window to name an existing link/host/port (check_fault_targets).
  /// Runs after the links and hosts exist, so its RNG fork follows theirs.
  void build_faults();
  /// Validates the sharded-mode restrictions (see cluster.cpp) and
  /// computes the host -> shard partition.
  void plan_shards();
  /// The run's FaultPlan with its window lists filtered down to
  /// `shard`'s hosts/links; global windows (link < 0 flaps, host-less
  /// stalls) replicate everywhere.  The whole plan at K = 1.
  FaultPlan shard_fault_plan(int shard) const;
  /// Hooks one injector's crash notifications: when a host goes dark,
  /// every live socket on it is aborted (killed_by_fault) in a task on
  /// its app core, so page releases charge in proper context.
  void register_crash_handler(FaultInjector& injector);
  /// A frame bound for the switch ingress, with its delivery key.
  using Arrival = ShardChannel<Frame>::Item;
  /// The FIFO carrying `uplink`'s frames to the fabric ingress on
  /// `shard`'s loop, under their deterministic delivery keys.
  EventFifo<Arrival>& ingress(int uplink, int shard) {
    return ingress_[static_cast<std::size_t>(uplink) * loops_.size() +
                    static_cast<std::size_t>(shard)];
  }
  /// Barrier hook: moves parked channel frames into destination loops.
  void drain_channels();
  ShardChannel<Frame>& channel(int src_shard, int dst_shard) {
    return channels_[static_cast<std::size_t>(src_shard) *
                         loops_.size() +
                     static_cast<std::size_t>(dst_shard)];
  }
  /// Attaches the observer to every host's NIC/stack and registers the
  /// per-host and fabric gauges (per-flow gauges join in make_flow()).
  void wire_observer();

  ExperimentConfig config_;
  std::vector<std::unique_ptr<EventLoop>> loops_;  ///< one per shard
  std::vector<int> shard_of_host_;
  std::vector<std::vector<int>> shard_hosts_;
  std::unique_ptr<ShardedExecutor> executor_;
  std::vector<ShardChannel<Frame>> channels_;      ///< src*K + dst
  /// Frames on their way to the switch ingress, one FIFO per (uplink,
  /// destination shard) on that shard's loop: uplink*K + shard.
  std::vector<EventFifo<Arrival>> ingress_;
  /// Per-link delivery sequence numbers (single writer: the shard that
  /// owns the link), composing the low bits of the delivery subkey.
  std::vector<std::uint64_t> link_delivery_seq_;
  std::vector<std::unique_ptr<Link>> links_;
  std::unique_ptr<Switch> fabric_;
  std::vector<std::unique_ptr<Host>> hosts_;
  /// One injector per shard (serial: exactly one); empty when the plan
  /// is empty.
  std::vector<std::unique_ptr<FaultInjector>> shard_faults_;
  std::unique_ptr<obs::Observer> obs_;
  std::vector<FlowRoute> routes_;
  int next_flow_ = 0;
  // Shared across hosts so each RSS-explicit flow claims a unique
  // NIC-remote core index, exactly as the legacy two-server testbed did.
  int next_remote_irq_ = 0;
  Context fault_ctx_{"fault-teardown", /*kernel=*/true};
};

}  // namespace hostsim

#endif  // HOSTSIM_CORE_CLUSTER_H
