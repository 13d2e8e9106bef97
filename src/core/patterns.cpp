#include "core/patterns.h"

#include <algorithm>

#include "sim/contract.h"

namespace hostsim {
namespace {

/// Receiver-side application core for single-consumer patterns.
int receiver_app_core(const Cluster& cluster, const TrafficConfig& traffic) {
  const NumaTopology& topo = cluster.config().topo;
  return traffic.receiver_app_remote_numa ? topo.remote_core(0)
                                          : topo.core_on_node(topo.nic_node, 0);
}

/// One long-running flow between two (host, core) endpoints.
void add_long_flow(Cluster& cluster, Workload& workload,
                   const TrafficConfig& traffic, Cluster::FlowEndpoint src,
                   Cluster::FlowEndpoint dst, bool explicit_irq = true) {
  auto endpoints = cluster.make_flow(src, dst, explicit_irq);
  workload.long_senders.push_back(std::make_unique<LongFlowSender>(
      cluster.host(src.host).core(src.core), *endpoints.at_sender,
      traffic.sender_chunk));
  workload.long_receivers.push_back(std::make_unique<LongFlowReceiver>(
      cluster.host(dst.host).core(dst.core), *endpoints.at_receiver,
      traffic.app_chunk));
}

/// One ping-pong RPC connection: a client on `src` and the server
/// process echoing it on `dst`.  With traffic.resilience enabled the
/// client's reconnect hook replaces the flow and rebinds the paired
/// server, and its jitter RNG forks from the loop's root generator here,
/// *after* cluster construction, so fault/wire stream assignments are
/// untouched (and no fork at all happens for non-resilient workloads).
void add_rpc_pair(Cluster& cluster, Workload& workload,
                  const TrafficConfig& traffic, Cluster::FlowEndpoint src,
                  Cluster::FlowEndpoint dst) {
  auto endpoints = cluster.make_flow(src, dst);
  RpcServer* server =
      workload.rpc_servers
          .emplace_back(std::make_unique<RpcServer>(
              cluster.host(dst.host).core(dst.core), *endpoints.at_receiver,
              traffic.rpc_size))
          .get();
  server->set_observer(cluster.observer(), dst.host);
  Cluster* cl = &cluster;
  auto reconnect = [cl, server](Core& core, int old_flow) {
    Cluster::FlowEndpoints fresh = cl->reconnect_flow(core, old_flow);
    server->rebind(*fresh.at_receiver);
    return fresh.at_sender;
  };
  RpcClient& client = *workload.rpc_clients.emplace_back(
      std::make_unique<RpcClient>(
          cluster.host(src.host).core(src.core), *endpoints.at_sender,
          traffic.rpc_size, traffic.resilience,
          traffic.resilience.enabled ? cluster.fork_rng() : Rng(),
          std::move(reconnect)));
  client.set_observer(cluster.observer(), src.host);
}

}  // namespace

void Workload::start() {
  for (auto& sender : long_senders) sender->start();
  for (auto& client : rpc_clients) client->start();
  if (open_loop != nullptr) open_loop->start();
}

std::uint64_t Workload::rpc_transactions() const {
  std::uint64_t total = 0;
  for (const auto& client : rpc_clients) total += client->completed();
  if (open_loop != nullptr) total += open_loop->completed();
  return total;
}

Histogram Workload::rpc_latency() const {
  Histogram merged;
  for (const auto& client : rpc_clients) merged.merge(client->latency());
  if (open_loop != nullptr) merged.merge(open_loop->latency());
  return merged;
}

void Workload::reset_rpc_latency() {
  for (auto& client : rpc_clients) client->reset_latency();
  if (open_loop != nullptr) open_loop->reset_window();
}

RpcClient::Counters Workload::rpc_recovery_totals() const {
  RpcClient::Counters totals;
  for (const auto& client : rpc_clients) {
    const RpcClient::Counters& c = client->counters();
    totals.completed += c.completed;
    totals.retries += c.retries;
    totals.timeouts += c.timeouts;
    totals.resets += c.resets;
    totals.failed += c.failed;
    totals.breaker_opens += c.breaker_opens;
    totals.reconnects += c.reconnects;
  }
  return totals;
}

std::optional<std::string> check_flows_fit(const TrafficConfig& traffic,
                                           int num_hosts, int cores) {
  const int n = traffic.flows;
  const int sender_cores = (num_hosts - 1) * cores;
  int most = 1;
  const char* per = "";  // each flow takes one of these
  switch (traffic.pattern) {
    case Pattern::single_flow:
      if (n == 1) return std::nullopt;
      return "--flows=" + std::to_string(n) +
             ": single-flow runs exactly one flow";
    case Pattern::incast:
    case Pattern::rpc_incast:
      most = sender_cores;
      per = "sender core";
      break;
    case Pattern::outcast:
      most = cores;
      per = "receiver core";
      break;
    case Pattern::one_to_one:
    case Pattern::all_to_all:
      most = std::min(sender_cores, cores);
      per = "sender core and receiver core";
      break;
    case Pattern::mixed:
    case Pattern::open_loop:
      return std::nullopt;  // no per-core placement to run out of
  }
  if (n >= 1 && n <= most) return std::nullopt;
  return "--flows=" + std::to_string(n) + ": " +
         std::string(to_string(traffic.pattern)) + " takes 1 to " +
         std::to_string(most) + " flows on " + std::to_string(num_hosts) +
         " hosts of " + std::to_string(cores) + " cores (one per " + per +
         ")";
}

/// Expands the paper's patterns at (host, core) granularity: hosts
/// 0..H-2 send, host H-1 receives.  Flow i's sending endpoint
/// round-robins over the sender hosts first (host i % S, core i / S):
/// with two hosts flow i runs from sender core i, the paper's testbed
/// placement; with more, "incast" becomes a true cross-host fan-in
/// through the switch.
Workload build_workload(Cluster& cluster, const TrafficConfig& traffic) {
  const int cores = cluster.config().topo.num_cores();
  const std::optional<std::string> misfit =
      check_flows_fit(traffic, cluster.num_hosts(), cores);
  require(!misfit, misfit ? misfit->c_str() : "");
  Workload workload;
  const int senders = cluster.num_hosts() - 1;
  const int rx_host = cluster.num_hosts() - 1;
  const int n = traffic.flows;
  const int rx = receiver_app_core(cluster, traffic);
  const auto src_of = [senders](int i) {
    return Cluster::FlowEndpoint{i % senders, i / senders};
  };

  switch (traffic.pattern) {
    case Pattern::single_flow: {
      add_long_flow(cluster, workload, traffic, {0, 0}, {rx_host, rx});
      break;
    }
    case Pattern::one_to_one: {
      for (int i = 0; i < n; ++i) {
        add_long_flow(cluster, workload, traffic, src_of(i),
                         {rx_host, i});
      }
      break;
    }
    case Pattern::incast: {
      for (int i = 0; i < n; ++i) {
        add_long_flow(cluster, workload, traffic, src_of(i),
                         {rx_host, rx});
      }
      break;
    }
    case Pattern::outcast: {
      for (int i = 0; i < n; ++i) {
        add_long_flow(cluster, workload, traffic, {0, 0}, {rx_host, i});
      }
      break;
    }
    case Pattern::all_to_all: {
      // The paper could not install n*n explicit steering entries; frames
      // fall back to RSS hashing when aRFS is off (§3.5).
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          add_long_flow(cluster, workload, traffic, src_of(i),
                           {rx_host, j}, /*explicit_irq=*/false);
        }
      }
      break;
    }
    case Pattern::rpc_incast: {
      for (int i = 0; i < n; ++i) {
        add_rpc_pair(cluster, workload, traffic, src_of(i), {rx_host, rx});
      }
      break;
    }
    case Pattern::open_loop: {
      workload.open_loop = std::make_unique<workload::OpenLoopEngine>(
          cluster, traffic, receiver_app_core(cluster, traffic));
      break;
    }
    case Pattern::mixed: {
      // One long flow from host 0 plus n short RPC flows, all sharing one
      // core on each side (paper fig. 11) — or, with §4's
      // application-aware scheduling, the short flows get their own.
      add_long_flow(cluster, workload, traffic, {0, 0}, {rx_host, rx});
      const int short_tx = traffic.segregate_mixed_cores ? 1 : 0;
      const int short_rx = traffic.segregate_mixed_cores
                               ? cluster.config().topo.core_on_node(
                                     cluster.config().topo.nic_node, 1)
                               : rx;
      for (int i = 0; i < n; ++i) {
        add_rpc_pair(cluster, workload, traffic, {0, short_tx},
                     {rx_host, short_rx});
      }
      break;
    }
  }
  return workload;
}

}  // namespace hostsim
