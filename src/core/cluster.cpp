#include "core/cluster.h"

#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "sim/contract.h"
#include "sim/fault_spec.h"

namespace hostsim {
namespace {

/// One direction of a flow: S sends, R receives.  Stated in the
/// protocol-neutral TransportSocket ledger (TCP: sequence space; Homa:
/// cumulative message-byte counters).
std::optional<std::string> check_flow_bytes(const std::string& label,
                                            const TransportSocket& s,
                                            const TransportSocket& r) {
  // rx_covered bytes are delivered, still queued, or — when a fault
  // or RST tore the socket down — accounted as destroyed by abort().
  const std::int64_t accounted = static_cast<std::int64_t>(
      r.delivered_to_app() + r.rq_bytes() + r.destroyed_rx_bytes());
  if (accounted != r.rx_covered()) {
    return label + ": delivered_to_app (" +
           std::to_string(r.delivered_to_app()) + ") + rq_bytes (" +
           std::to_string(r.rq_bytes()) + ") + destroyed_rx (" +
           std::to_string(r.destroyed_rx_bytes()) + ") != rx_covered (" +
           std::to_string(r.rx_covered()) + ") — bytes created or destroyed";
  }
  if (s.tx_acked() > r.rx_covered()) {
    return label + ": tx_acked (" + std::to_string(s.tx_acked()) +
           ") > receiver rx_covered (" + std::to_string(r.rx_covered()) +
           ") — data acknowledged that was never received";
  }
  if (r.rx_covered() > s.tx_written()) {
    return label + ": receiver rx_covered (" + std::to_string(r.rx_covered()) +
           ") > sender tx_written (" + std::to_string(s.tx_written()) +
           ") — receiver holds bytes the application never wrote";
  }
  return std::nullopt;
}

/// Page-leak freedom as a mark pass over page ids, marking each held page
/// as it is visited (pages repeat: descriptors share them).  Every held
/// page must be live: the allocator's page with that id, with refs > 0.
/// The first one that is not, in collection order, is a use after free.
/// Every live page must be held; leaks are named in id order.
std::optional<std::string> check_host_pages(Host& host) {
  const PageAllocator& allocator = host.allocator();
  std::vector<std::uint8_t> marked(allocator.pages_created() + 1, 0);
  std::size_t distinct = 0;
  const Page* freed = nullptr;  // the first held page that is not live
  const auto mark = [&](const Page* page) {
    if (freed != nullptr || allocator.page(page->id) != page ||
        page->refs <= 0) {
      if (freed == nullptr) freed = page;
      return;
    }
    distinct += marked[page->id] == 0;
    marked[page->id] = 1;
  };
  host.nic().for_each_held_page(mark);
  std::vector<const Page*> stack_held;
  host.stack().collect_held_pages(stack_held);
  for (const Page* page : stack_held) mark(page);
  if (freed != nullptr) {
    return host.name() + ": holds a reference to freed page id " +
           std::to_string(freed->id) + " — use after free";
  }

  std::string detail;
  int leaked = 0;
  std::size_t live = 0;
  for (PageId id = 1; id < marked.size(); ++id) {
    const Page* page = allocator.page(id);
    if (page->refs <= 0) continue;
    ++live;
    if (marked[id] != 0 || ++leaked > 8) continue;
    detail += (detail.empty() ? "page id " : ", ") + std::to_string(id) +
              " (refs=" + std::to_string(page->refs) + ")";
  }
  if (leaked > 0) {
    return host.name() + ": " + std::to_string(leaked) +
           " leaked page(s): " + detail + (leaked > 8 ? ", ..." : "") +
           " (live=" + std::to_string(live) +
           ", held=" + std::to_string(distinct) + ")";
  }
  return std::nullopt;
}

/// A dead socket must have a disposition: either a fault killed it, or
/// the application observed the error through the callback.  A socket
/// that died unreported is a hang the app could never have noticed.
std::optional<std::string> check_host_disposition(Host& host) {
  for (int flow : host.stack().flow_ids()) {
    const TransportSocket& socket = host.stack().socket(flow);
    if (!socket.dead()) continue;
    if (socket.killed_by_fault() || socket.error_reported()) continue;
    return host.name() + " flow " + std::to_string(flow) + ": socket died (" +
           std::string(to_string(socket.error())) +
           ") neither killed by a fault nor reported to the application" +
           " — the app would hang without ever observing the failure";
  }
  return std::nullopt;
}

std::optional<std::string> check_host_rto(Host& host) {
  for (int flow : host.stack().flow_ids()) {
    const TransportSocket& socket = host.stack().socket(flow);
    if (socket.dead()) continue;  // terminally failed, never progresses
    if (socket.tx_acked() >= socket.tx_written()) continue;  // all acked
    if (socket.loss_timer_armed()) continue;
    return host.name() + " flow " + std::to_string(flow) +
           ": outstanding data [tx_acked " + std::to_string(socket.tx_acked()) +
           ", tx_written " + std::to_string(socket.tx_written()) +
           ") with no loss-recovery timer armed" +
           " — the connection can never make progress again";
  }
  return std::nullopt;
}

Link::Config link_config(const ExperimentConfig& config) {
  Link::Config link;
  link.gbps = config.link_gbps;
  link.loss_rate = config.loss_rate;
  link.ecn_threshold = config.ecn_threshold;
  return link;
}

/// Can this configuration run sharded?  `shards` is an execution
/// strategy, not an experiment parameter, and the artifacts are
/// bit-identical either way — so unsupported combinations quietly fall
/// back to the serial path instead of failing the run (a sweep may set
/// HOSTSIM_SHARDS for a whole campaign, degenerate points included).
/// Unsupported:
///   - the degenerate back-to-back topology (nothing to partition);
///   - the open-loop / resilient-RPC workloads (their engines post
///     tasks across hosts mid-run).
/// Faults shard: every random fault draw comes from the stream of the
/// link it hits, which lives on one shard.  Observability shards
/// cleanly too: tracers and monitors are per host (single writer),
/// samplers run per shard over shard-owned gauges, and the harvest views
/// merge on deterministic keys (see obs/observer.h).
bool shardable(const ExperimentConfig& config) {
  if (config.topology.degenerate()) return false;
  if (config.traffic.pattern == Pattern::open_loop) return false;
  if (config.traffic.resilience.enabled) return false;
  return true;
}

}  // namespace

Cluster::Cluster(const ExperimentConfig& config) : config_(config) {
  require(config.topology.num_hosts >= 2, "a cluster needs at least 2 hosts");
  require(config.topology.num_hosts == 2 || !config.topology.degenerate(),
          "more than 2 hosts requires the switch topology");
  require(config.shards >= 1, "config.shards must be >= 1");
  plan_shards();
  std::vector<EventLoop*> loop_ptrs;
  loop_ptrs.reserve(loops_.size());
  for (auto& loop : loops_) loop_ptrs.push_back(loop.get());
  executor_ = std::make_unique<ShardedExecutor>(loop_ptrs, kWirePropagation);
  executor_->set_barrier_hook([this] { drain_channels(); });
  if (!config.topology.degenerate()) {
    // Sized before construction: the links' forward closures capture
    // references into these containers.  The delivery band is used at
    // every shard count (serial included — see build_cluster), so these
    // exist whenever the switch topology does.
    const std::size_t shards = loops_.size();
    ingress_ = std::vector<EventFifo<Arrival>>(
        static_cast<std::size_t>(config.topology.num_hosts) * shards);
    for (std::size_t f = 0; f < ingress_.size(); ++f) {
      // Host h's uplink feeds fabric ingress port h.
      const int port = static_cast<int>(f / shards);
      ingress_[f].bind(*loops_[f % shards], [this, port](Arrival& arrival) {
        fabric_->ingress_ranked(port, std::move(arrival.payload),
                                arrival.sent, arrival.sub);
      });
    }
    channels_.resize(shards * shards);
    link_delivery_seq_.assign(
        static_cast<std::size_t>(config.topology.num_hosts), 0);
  }
  if (config.topology.degenerate()) {
    build_degenerate();
  } else {
    build_cluster();
  }
  if (config_.obs.enabled()) {
    // Built last: the observer forks no RNG and schedules nothing until
    // start_sampler(), so the datapath above is bit-identical with or
    // without it.
    obs_ = std::make_unique<obs::Observer>(std::move(loop_ptrs),
                                           shard_of_host_, config_.obs,
                                           config_.seed);
    if (obs_->tracing() && fabric_ != nullptr) {
      fabric_->enable_hop_trace(obs::Observer::kMaxSpans);
    }
    wire_observer();
  }
}

void Cluster::plan_shards() {
  const int num_hosts = config_.topology.num_hosts;
  int shards = config_.shards;
  if (shards > num_hosts) shards = num_hosts;  // extra shards buy nothing
  if (shards > 1 && !shardable(config_)) shards = 1;

  shard_of_host_.resize(static_cast<std::size_t>(num_hosts));
  shard_hosts_.assign(static_cast<std::size_t>(shards), {});
  for (int h = 0; h < num_hosts; ++h) {
    // Contiguous near-equal ranges: host h on shard h*K/H.
    const int s = static_cast<int>((static_cast<std::int64_t>(h) * shards) /
                                   num_hosts);
    shard_of_host_[static_cast<std::size_t>(h)] = s;
    shard_hosts_[static_cast<std::size_t>(s)].push_back(h);
  }

  // Every shard loop is seeded with the run seed, but only shard 0's
  // stream is ever forked from (it is the serial run's root stream; all
  // construction-order forks are pulled from it — see build_cluster).
  loops_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    loops_.push_back(std::make_unique<EventLoop>(config_.seed));
  }
}

void Cluster::wire_observer() {
  obs::Registry& registry = obs_->registry();
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    Host* host = hosts_[h].get();
    host->nic().set_observer(obs_.get());
    host->stack().set_observer(obs_.get());

    // Every gauge below reads only host h's state, so it is owned by
    // h's shard: that shard's sampler reads it at the tick, with no
    // cross-shard access.
    const int owner = static_cast<int>(h);
    const std::string prefix = "host" + std::to_string(h);
    // Table 1 cycle-category shares, aggregated over the host's cores.
    for (std::size_t c = 0; c < kNumCpuCategories; ++c) {
      const auto category = static_cast<CpuCategory>(c);
      registry.gauge(prefix + ".cyc." + std::string(to_string(category)),
                     [host, category] {
                       Cycles in_category = 0;
                       Cycles total = 0;
                       for (int i = 0; i < host->num_cores(); ++i) {
                         const CycleAccount& account = host->core(i).account();
                         in_category += account.get(category);
                         total += account.total();
                       }
                       return total != 0 ? static_cast<double>(in_category) /
                                               static_cast<double>(total)
                                         : 0.0;
                     },
                     owner);
    }
    // DDIO-relevant cache state: the NIC-local LLC (fig. 3e mechanisms).
    LlcModel* nic_llc = &host->llc(host->topo().nic_node);
    registry.gauge(prefix + ".llc.occupancy_pages", [nic_llc] {
      return static_cast<double>(nic_llc->occupancy());
    }, owner);
    registry.gauge(prefix + ".llc.miss_rate", [nic_llc] {
      return nic_llc->read_stats().miss_rate();
    }, owner);
    registry.gauge(prefix + ".pages_live", [host] {
      return static_cast<double>(host->allocator().live_pages());
    }, owner);
    registry.gauge(prefix + ".nic.posted_desc", [host] {
      double posted = 0;
      for (int q = 0; q < host->num_cores(); ++q) {
        posted += host->nic().posted_descriptors(q);
      }
      return posted;
    }, owner);
    registry.gauge(prefix + ".nic.backlog", [host] {
      double backlog = 0;
      for (int q = 0; q < host->num_cores(); ++q) {
        backlog += static_cast<double>(host->nic().backlog(q));
      }
      return backlog;
    }, owner);
  }
  if (fabric_ != nullptr) {
    // Per-port gauges (port i is owned by host i's shard — the switch
    // is partitioned by egress port), folded back into the single
    // "switch.queued_bytes" artifact column at export.
    Switch* fabric = fabric_.get();
    for (int i = 0; i < fabric->num_ports(); ++i) {
      registry.gauge("switch.port" + std::to_string(i) + ".queued_bytes",
                     [fabric, i] {
                       return static_cast<double>(
                           fabric->port_stats(i).queued_bytes);
                     },
                     /*owner_host=*/i, /*fold=*/"switch.queued_bytes");
    }
  }
}

void Cluster::build_degenerate() {
  // The legacy two-server path, preserved verbatim: construction order
  // (wire, sender, receiver, then faults iff configured) fixes the RNG
  // fork sequence, so historical runs replay bit-for-bit.  Always
  // serial (plan_shards degrades shards > 1 to 1 here).
  EventLoop& loop = *loops_[0];
  links_.push_back(std::make_unique<Link>(loop, link_config(config_)));
  hosts_.push_back(std::make_unique<Host>(loop, config_, *links_[0],
                                          Link::Side::a, "sender"));
  hosts_.push_back(std::make_unique<Host>(loop, config_, *links_[0],
                                          Link::Side::b, "receiver"));
  build_faults();
}

void Cluster::build_faults() {
  if (!config_.faults.any()) return;
  require(!check_fault_targets(config_.faults, num_hosts()),
          "fault window names a link, host or port outside the cluster");
  // Constructed after the links and hosts so the fault fork leaves their
  // stream assignments — and therefore every fault-free run — untouched.
  // Every shard's injector derives the same per-link streams from this
  // one fork and draws only on its own links.  Host h's uplink is link
  // h, or the one wire back-to-back.
  const Rng fault_rng = loops_[0]->rng().fork();
  std::vector<int> host_uplinks(hosts_.size(), 0);
  if (!config_.topology.degenerate()) {
    std::iota(host_uplinks.begin(), host_uplinks.end(), 0);
  }
  for (int s = 0; s < num_shards(); ++s) {
    shard_faults_.push_back(std::make_unique<FaultInjector>(
        *loops_[static_cast<std::size_t>(s)], shard_fault_plan(s), fault_rng,
        host_uplinks, /*count_global_windows=*/s == 0));
    register_crash_handler(*shard_faults_.back());
  }
  // Link i is host i's cable (the degenerate wire is link 0).
  for (std::size_t i = 0; i < links_.size(); ++i) {
    links_[i]->set_fault_injector(shard_faults(shard_of_host_[i]));
  }
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    hosts_[h]->nic().set_fault_injector(shard_faults(shard_of_host_[h]));
  }
}

void Cluster::register_crash_handler(FaultInjector& injector) {
  if (injector.plan().host_crashes.empty()) return;
  injector.set_crash_handler([this](int crashed, bool up) {
    if (up) return;  // restart: fresh sockets arrive via app reconnects
    // Sharded runs filter crash windows to the victim's own shard, so
    // this handler runs on — and only touches — that shard's state.
    Host& victim = host(crashed);
    Stack& stack = victim.stack();
    for (int flow : stack.flow_ids()) {
      TransportSocket& socket = stack.socket(flow);
      if (socket.dead()) continue;
      // Teardown runs as a task on the socket's app core: page releases
      // must charge in proper task context on the owning host.
      victim.core(socket.app_core())
          .post(fault_ctx_, [&stack, flow](Core& core) {
            if (TransportSocket* live = stack.find_socket(flow)) {
              live->abort(core, SocketError::econnreset,
                          /*killed_by_fault=*/true);
            }
          });
    }
  });
}

FaultPlan Cluster::shard_fault_plan(int shard) const {
  // The probabilistic faults pass through: each shard draws them on its
  // own links' streams.  Each window lands on the shard owning its
  // link/host/port (build_faults() checked they all exist); global
  // windows — link < 0 flaps and host < 0 stalls — replicate everywhere
  // so every consulting component sees them locally.  At K = 1 the plan
  // is unchanged.
  FaultPlan plan = config_.faults;
  const auto owned = [this, shard](int host) {
    return host < 0 || shard_of_host_[static_cast<std::size_t>(host)] == shard;
  };
  std::erase_if(plan.link_flaps,
                [&](const LinkFlap& flap) { return !owned(flap.link); });
  std::erase_if(plan.ring_stalls,
                [&](const RingStall& stall) { return !owned(stall.host); });
  std::erase_if(plan.host_crashes,
                [&](const HostCrash& crash) { return !owned(crash.host); });
  std::erase_if(plan.port_blackholes,
                [&](const PortBlackhole& hole) { return !owned(hole.port); });
  return plan;
}

void Cluster::build_cluster() {
  const TopologyConfig& topo = config_.topology;
  const int num_hosts = topo.num_hosts;
  EventLoop& root = *loops_[0];

  // One uplink Link per host (Side::a = the host, Side::b = the switch
  // ingress), then the fabric, then the hosts.  Link i carries id i, so
  // FaultPlan entries address link/port i == host i's cable.
  for (int i = 0; i < num_hosts; ++i) {
    const std::size_t shard = static_cast<std::size_t>(shard_of_host_[i]);
    // The per-link loss stream is forked from the root in construction
    // order (link 0, 1, ...), then the link itself lives on its host's
    // shard loop — stream assignments are identical at any shard count
    // (serially this matches the legacy ctor, which forks from its own
    // loop's rng, i.e. the root).
    links_.push_back(std::make_unique<Link>(
        *loops_[shard], link_config(config_), root.rng().fork()));
    links_.back()->set_id(i);
  }

  Switch::Config fabric_config;
  fabric_config.num_ports = num_hosts;
  fabric_config.port_gbps =
      topo.port_gbps > 0 ? topo.port_gbps : config_.link_gbps;
  fabric_config.buffer_bytes = topo.switch_buffer;
  fabric_config.ecn_threshold_bytes = topo.switch_ecn_bytes;
  fabric_ = std::make_unique<Switch>(root, fabric_config);
  if (config_.obs.trace_capacity > 0) {
    fabric_->enable_trace(config_.obs.trace_capacity);
  }

  // Each shard builds its own hosts in host order on its own thread.  A
  // host touches only itself, side a of its link and its shard's loop (its
  // NIC's t=0 ring fill runs at once) and forks no RNG: each loop gets the
  // events a serial build gives it.
  hosts_.resize(static_cast<std::size_t>(num_hosts));
  executor_->for_each_shard([this, num_hosts](int shard) {
    for (int i : shard_hosts(shard)) {
      const std::string name =
          num_hosts == 2 ? (i == 0 ? "sender" : "receiver")
                         : "host" + std::to_string(i);
      hosts_[static_cast<std::size_t>(i)] = std::make_unique<Host>(
          shard_loop(shard), config_, *links_[static_cast<std::size_t>(i)],
          Link::Side::a, name, i);
    }
  });

  for (int i = 0; i < num_hosts; ++i) {
    const std::size_t shard = static_cast<std::size_t>(shard_of_host_[i]);
    // Switch egress delivers straight into the destination NIC (the
    // buffered fabric models the downlink's serialization + propagation
    // itself; pass-through adds nothing, by design — see hw/switch.h).
    fabric_->attach_port(i, [this, i](Frame frame) {
      hosts_[static_cast<std::size_t>(i)]->nic().receive(std::move(frame));
    });

    // The uplink tail feeds the switch, and every cross-host frame takes
    // the deterministic delivery band — in serial mode too: the uplink
    // hands (delivery time, send time, frame) here, and ingress runs on
    // the shard owning the destination host — via its own loop for a
    // same-shard hop (always, serially), or parked in a channel until
    // the round barrier otherwise.  Keying serial deliveries with the
    // same (sent, link id, count) ranks makes serial and sharded event
    // order coincide *by construction*: a plain schedule_at would break
    // simultaneous arrivals from different links by global scheduling
    // sequence — history a shard partition cannot observe.
    const int src_shard = static_cast<int>(shard);
    links_[i]->set_remote_forward(
        Link::Side::b,
        [this, i, src_shard](Nanos at, Nanos sent, Frame frame) {
          require(frame.dst_host >= 0 && frame.dst_host < this->num_hosts(),
                  "forwarded frame carries no destination host");
          // (link id, per-link count): unique, single-writer (link i
          // transmits only on its own shard), and reproducible — the
          // count only advances in the link's own deterministic
          // transmit order.
          const std::uint64_t sub =
              (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i))
               << 40) |
              link_delivery_seq_[static_cast<std::size_t>(i)]++;
          const int dst_shard = shard_of_host(frame.dst_host);
          if (dst_shard == src_shard) {
            ingress(i, dst_shard)
                .push_delivery(at, sent, sub, {at, sent, sub, frame});
          } else {
            require(at > executor_->round_deadline(),
                    "cross-shard frame lands inside the open round window "
                    "— lookahead violated");
            channel(src_shard, dst_shard)
                .push(at, sent, sub, std::move(frame));
          }
        });
  }

  build_faults();

  // Partition the switch by egress port: port i's mutable state moves
  // to host i's shard (its fault consults included).  Serially every
  // port lands on the single loop; the partitioned form (per-port trace
  // rings merged by rank, aggregate counters derived per port) is used
  // at every shard count so the artifacts cannot depend on K.
  for (int i = 0; i < num_hosts; ++i) {
    fabric_->shard_port(i,
                        *loops_[static_cast<std::size_t>(shard_of_host_[i])],
                        shard_faults(shard_of_host_[i]));
  }
}

void Cluster::drain_channels() {
  const int shards = num_shards();
  for (int src = 0; src < shards; ++src) {
    for (int dst = 0; dst < shards; ++dst) {
      if (src == dst) continue;
      // The NIC stamped src_host, the index of the uplink the frame
      // took — so the channel need not carry the link separately.
      channel(src, dst).drain([this, dst](const Arrival& item) {
        ingress(item.payload.src_host, dst)
            .push_delivery(item.at, item.sent, item.sub, item);
      });
    }
  }
}

void Cluster::run_until(Nanos deadline) { executor_->run_until(deadline); }

void Cluster::run_to_completion() { executor_->run_to_completion(); }

std::uint64_t Cluster::events_executed() const {
  std::uint64_t executed = 0;
  for (const auto& loop : loops_) executed += loop->executed();
  return executed;
}

std::size_t Cluster::events_pending() const {
  std::size_t pending = 0;
  for (const auto& loop : loops_) pending += loop->pending();
  return pending;
}

FaultCounters Cluster::merged_fault_counters() const {
  FaultCounters merged;
  for (const auto& injector : shard_faults_) {
    const FaultCounters& c = injector->counters();
    merged.random_drops += c.random_drops;
    merged.bursty_drops += c.bursty_drops;
    merged.flap_drops += c.flap_drops;
    merged.corrupt_frames += c.corrupt_frames;
    merged.flaps += c.flaps;
    merged.ring_stall_drops += c.ring_stall_drops;
    merged.pool_denials += c.pool_denials;
    merged.watchdog_trips += c.watchdog_trips;
    merged.host_crashes += c.host_crashes;
    merged.crash_drops += c.crash_drops;
    merged.blackhole_drops += c.blackhole_drops;
  }
  return merged;
}

std::uint64_t Cluster::app_progress() const {
  std::uint64_t progress = 0;
  for (const auto& host : hosts_) {
    progress +=
        static_cast<std::uint64_t>(host->stack().total_delivered_to_app());
  }
  return progress;
}

std::uint64_t Cluster::app_progress(int shard) const {
  std::uint64_t progress = 0;
  for (int h : shard_hosts_.at(static_cast<std::size_t>(shard))) {
    progress += static_cast<std::uint64_t>(
        hosts_[static_cast<std::size_t>(h)]->stack().total_delivered_to_app());
  }
  return progress;
}

bool Cluster::transfers_outstanding() const {
  for (const auto& host : hosts_) {
    for (int flow : host->stack().flow_ids()) {
      const TransportSocket& socket = host->stack().socket(flow);
      if (socket.dead()) continue;  // buffered bytes died with the socket
      if (socket.tx_acked() < socket.tx_written()) return true;
    }
  }
  return false;
}

std::uint64_t Cluster::total_wire_drops() const {
  std::uint64_t drops = 0;
  for (const auto& link : links_) drops += link->dropped();
  if (fabric_ != nullptr) drops += fabric_->dropped();
  return drops;
}

void Cluster::register_invariants(InvariantChecker& checker) {
  checker.add_check("byte-conservation", [this]() -> std::optional<std::string> {
    for (int flow = 0; flow < next_flow_; ++flow) {
      const FlowRoute& route = routes_[static_cast<std::size_t>(flow)];
      const TransportSocket* at_sender =
          host(route.src_host).stack().find_socket(flow);
      const TransportSocket* at_receiver =
          host(route.dst_host).stack().find_socket(flow);
      if (at_sender == nullptr || at_receiver == nullptr) {
        // A reconnect destroyed at least one endpoint; the destroyed
        // bytes were accounted through note_socket_abort() already, and
        // cross-checking against a gone peer is meaningless.
        continue;
      }
      const std::string flow_label = "flow " + std::to_string(flow);
      if (auto bad = check_flow_bytes(flow_label + " sender->receiver",
                                      *at_sender, *at_receiver)) {
        return bad;
      }
      if (auto bad = check_flow_bytes(flow_label + " receiver->sender",
                                      *at_receiver, *at_sender)) {
        return bad;
      }
    }
    return std::nullopt;
  });

  checker.add_check("fault-disposition",
                    [this]() -> std::optional<std::string> {
    for (auto& host : hosts_) {
      if (auto bad = check_host_disposition(*host)) return bad;
    }
    return std::nullopt;
  });

  checker.add_check("page-leak", [this]() -> std::optional<std::string> {
    // Each shard checks its own hosts on its own thread; the first
    // failing host in host order decides, as a serial sweep would.
    std::vector<std::optional<std::string>> verdicts(hosts_.size());
    executor_->for_each_shard([this, &verdicts](int shard) {
      for (int h : shard_hosts(shard)) {
        verdicts[static_cast<std::size_t>(h)] =
            check_host_pages(*hosts_[static_cast<std::size_t>(h)]);
      }
    });
    for (std::optional<std::string>& verdict : verdicts) {
      if (verdict) return verdict;
    }
    return std::nullopt;
  });

  checker.add_check("rto-liveness", [this]() -> std::optional<std::string> {
    for (auto& host : hosts_) {
      if (auto bad = check_host_rto(*host)) return bad;
    }
    return std::nullopt;
  });

  checker.add_check("event-drain", [this]() -> std::optional<std::string> {
    // pending() is exact (cancellation removes events from the queue
    // eagerly), so the bound no longer needs slack that grows with the
    // executed count — what remains at the deadline is genuinely live
    // state (armed timers, in-flight frames), which scales with the
    // workload's flow count, not its duration.
    const std::size_t cap = 100'000;
    if (events_pending() > cap) {
      return "event queue holds " + std::to_string(events_pending()) +
             " events after " + std::to_string(events_executed()) +
             " executed — something schedules without bound";
    }
    return std::nullopt;
  });
}

Cluster::FlowEndpoints Cluster::make_flow(FlowEndpoint src, FlowEndpoint dst,
                                          bool explicit_irq_mapping) {
  require(src.host >= 0 && src.host < num_hosts() && dst.host >= 0 &&
              dst.host < num_hosts(),
          "flow endpoint host out of range");
  require(src.host != dst.host, "flow endpoints must be on distinct hosts");
  const int flow = next_flow_++;
  Host& src_host = host(src.host);
  Host& dst_host = host(dst.host);
  routes_.push_back(FlowRoute{src.host, dst.host, src.core, dst.core});

  FlowEndpoints endpoints;
  endpoints.at_sender = &src_host.stack().create_socket(flow, src.core);
  endpoints.at_receiver = &dst_host.stack().create_socket(flow, dst.core);
  src_host.nic().set_flow_dst(flow, dst.host);
  dst_host.nic().set_flow_dst(flow, src.host);

  if (config_.stack.arfs) {
    // aRFS: the NIC steers each flow's IRQs to the core where the
    // consuming application runs (both directions: data at the receiver,
    // ACKs at the sender).
    src_host.nic().steer_flow(flow, src.core);
    dst_host.nic().steer_flow(flow, dst.core);
  } else if (config_.stack.fallback_steering == SteeringMode::rss &&
             explicit_irq_mapping) {
    // Paper methodology (§3.1): without aRFS, deterministically map each
    // flow's IRQs to a unique core on a NIC-remote NUMA node (the RSS
    // worst case).
    const int remote = next_remote_irq_++;
    src_host.nic().steer_flow(flow, src_host.topo().remote_core(remote));
    dst_host.nic().steer_flow(flow, dst_host.topo().remote_core(remote));
  }
  // Otherwise: no steering entry — the NIC hashes the flow to a queue
  // (plain RSS, also the IRQ placement under software RPS/RFS, which
  // then requeue protocol processing in the stack).

  if (obs_ != nullptr) {
    obs::Registry& registry = obs_->registry();
    const std::string prefix = "flow" + std::to_string(flow);
    // Resolved per sample: the socket can be destroyed mid-run by a
    // reconnect, after which the gauge reads 0 instead of dangling.
    Stack* src_stack = &src_host.stack();
    registry.gauge(prefix + ".cwnd_bytes", [src_stack, flow] {
      const TransportSocket* s = src_stack->find_socket(flow);
      return s != nullptr ? static_cast<double>(s->cwnd_bytes()) : 0.0;
    }, src.host);
    registry.gauge(prefix + ".srtt_ns", [src_stack, flow] {
      const TransportSocket* s = src_stack->find_socket(flow);
      return s != nullptr ? static_cast<double>(s->srtt()) : 0.0;
    }, src.host);
    registry.gauge(prefix + ".inflight_bytes", [src_stack, flow] {
      const TransportSocket* s = src_stack->find_socket(flow);
      return s != nullptr ? static_cast<double>(s->inflight()) : 0.0;
    }, src.host);
  }
  return endpoints;
}

int Cluster::open_flow(FlowEndpoint src, FlowEndpoint dst, Nanos syn_retry,
                       int max_syn_retries, Stack::ConnectFn on_done) {
  require(src.host >= 0 && src.host < num_hosts() && dst.host >= 0 &&
              dst.host < num_hosts(),
          "flow endpoint host out of range");
  require(src.host != dst.host, "flow endpoints must be on distinct hosts");
  require(!config_.stack.receiver_driven,
          "handshaking flows unsupported in receiver-driven mode");
  require(num_shards() == 1,
          "handshaking flows unsupported in sharded runs (accept-side "
          "socket creation crosses shards)");
  const int flow = next_flow_++;
  Host& src_host = host(src.host);
  Host& dst_host = host(dst.host);
  routes_.push_back(FlowRoute{src.host, dst.host, src.core, dst.core});

  src_host.stack().create_socket(flow, src.core);
  src_host.nic().set_flow_dst(flow, dst.host);
  dst_host.nic().set_flow_dst(flow, src.host);
  if (config_.stack.arfs) {
    src_host.nic().steer_flow(flow, src.core);
    dst_host.nic().steer_flow(flow, dst.core);
  }
  // No explicit-RSS slot: ephemeral churn flows would exhaust the
  // remote-core mapping; they take the hash fallback instead.

  src_host.stack().connect(flow, syn_retry, max_syn_retries,
                           std::move(on_done));
  return flow;
}

Cluster::FlowEndpoints Cluster::reconnect_flow(Core& core, int flow) {
  require(!config_.stack.receiver_driven,
          "reconnect unsupported in receiver-driven mode");
  require(num_shards() == 1,
          "reconnect unsupported in sharded runs (remote teardown posts "
          "across shards mid-round)");
  require(flow >= 0 && flow < next_flow_, "reconnecting an unknown flow");
  const FlowRoute route = routes_[static_cast<std::size_t>(flow)];

  // Local end: the caller runs in a task on the source app core, so the
  // teardown's page releases charge right here.
  Stack& src_stack = host(route.src_host).stack();
  if (TransportSocket* old_src = src_stack.find_socket(flow)) {
    old_src->abort(core, SocketError::econnreset);
    src_stack.destroy_socket(flow);
  }
  // Remote end: abort + remove in a task on its own host's core.  Data
  // still in flight for the old id finds no socket and draws an RST —
  // harmless, the local end is already gone.
  Stack& dst_stack = host(route.dst_host).stack();
  host(route.dst_host)
      .core(route.dst_core)
      .post(fault_ctx_, [&dst_stack, flow](Core& remote) {
        if (TransportSocket* old_dst = dst_stack.find_socket(flow)) {
          old_dst->abort(remote, SocketError::econnreset);
          dst_stack.destroy_socket(flow);
        }
      });

  return make_flow(FlowEndpoint{route.src_host, route.src_core},
                   FlowEndpoint{route.dst_host, route.dst_core});
}

}  // namespace hostsim
