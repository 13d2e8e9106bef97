// Workload builders for the paper's traffic patterns (fig. 2) and the
// §3.7 flow-size mixes.
#ifndef HOSTSIM_CORE_PATTERNS_H
#define HOSTSIM_CORE_PATTERNS_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/long_flow_app.h"
#include "app/rpc_app.h"
#include "core/testbed.h"
#include "workload/open_loop.h"

namespace hostsim {

/// Owns every application object of a running workload.
struct Workload {
  std::vector<std::unique_ptr<LongFlowSender>> long_senders;
  std::vector<std::unique_ptr<LongFlowReceiver>> long_receivers;
  /// Ping-pong clients; with traffic.resilience.enabled each also runs
  /// the deadline/retry/breaker policy.
  std::vector<std::unique_ptr<RpcClient>> rpc_clients;
  std::vector<std::unique_ptr<RpcServer>> rpc_servers;
  /// Open-loop traffic engine (Pattern::open_loop only).
  std::unique_ptr<workload::OpenLoopEngine> open_loop;

  /// Kicks off every application.
  void start();

  /// Completed RPC transactions across all clients.
  std::uint64_t rpc_transactions() const;

  /// Merged per-transaction latency histogram across all clients.
  Histogram rpc_latency() const;
  /// Clears client latency records (start of a measurement window).
  void reset_rpc_latency();

  /// Summed resilience counters across all RPC clients.
  RpcClient::Counters rpc_recovery_totals() const;
};

/// Why `traffic.flows` does not fit a run of `num_hosts` hosts with
/// `cores` cores each, as one line naming the pattern's bound, or
/// std::nullopt when it fits.  The long-flow and RPC patterns place at
/// most one flow per sender core (hosts 0..H-2) and, for one-to-one,
/// outcast and all-to-all, per receiver core; build_workload requires
/// this check to pass.
std::optional<std::string> check_flows_fit(const TrafficConfig& traffic,
                                           int num_hosts, int cores);

/// Builds the applications and flows for `traffic` on `cluster`.
/// Placement follows the paper: cores are used in id order, so the first
/// `cores_per_node` flows land on the NIC-local NUMA node;
/// `receiver_app_remote_numa` pins receiver-side applications to a
/// NIC-remote node instead (figs. 4 and 10(c)).
///
/// One rule expands the patterns at every host count, at (host, core)
/// granularity: hosts 0..H-2 send toward host H-1, flow i's source
/// round-robining over the sender hosts first.  With two hosts that is
/// the paper's testbed (flow i from sender core i); with more,
/// incast/all-to-all become genuine cross-host fan-ins through the
/// switch fabric.
Workload build_workload(Cluster& cluster, const TrafficConfig& traffic);

}  // namespace hostsim

#endif  // HOSTSIM_CORE_PATTERNS_H
