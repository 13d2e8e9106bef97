#include "workload/open_loop.h"

#include <algorithm>
#include <ostream>

#include "sim/contract.h"

namespace hostsim::workload {

void write_records_jsonl(const std::vector<RequestRecord>& records,
                         std::ostream& out) {
  for (const RequestRecord& r : records) {
    out << "{\"id\":" << r.id << ",\"arrival_ns\":" << r.arrival
        << ",\"dispatch_ns\":" << r.dispatch
        << ",\"first_byte_ns\":" << r.first_byte
        << ",\"completion_ns\":" << r.completion << ",\"bytes\":" << r.bytes
        << ",\"fan_out\":" << r.fan_out
        << ",\"redispatches\":" << r.redispatches
        << ",\"fresh_conn\":" << (r.fresh_conn ? "true" : "false") << "}\n";
  }
}

OpenLoopEngine::OpenLoopEngine(Cluster& cluster, const TrafficConfig& traffic,
                               int rx_core)
    : cluster_(&cluster),
      wl_(traffic.workload),
      rx_core_(rx_core),
      // Exactly three forks, fixed order — see the header comment.
      arrivals_(wl_, cluster.fork_rng()),
      sizes_(wl_, traffic.rpc_size, cluster.fork_rng()),
      churn_rng_(cluster.fork_rng()),
      obs_(cluster.observer()) {
  require(wl_.enabled, "open-loop pattern requires traffic.workload.enabled");
  require(cluster.num_hosts() >= 2, "open-loop needs a client and a backend");
  require(traffic.flows >= 1, "open-loop needs at least one connection slot");
  require(wl_.fan_out >= 1, "fan-out must be at least 1");
  require(wl_.churn_prob >= 0 && wl_.churn_prob <= 1,
          "churn probability must be in [0, 1]");
  const int cores = cluster.config().topo.num_cores();
  const int backends = cluster.num_hosts() - 1;
  slots_.resize(static_cast<std::size_t>(traffic.flows));
  echoes_.resize(static_cast<std::size_t>(traffic.flows));
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    ClientSlot& slot = slots_[i];
    slot.core = static_cast<int>(i) % cores;
    slot.backend = 1 + static_cast<int>(i) % backends;
    slot.thread = std::make_unique<Thread>(
        cluster.host(0).core(slot.core), "open-loop-client");
    slot.thread->set_body([this, i](Core& core, Thread& thread) {
      client_quantum(core, thread, i);
    });
    EchoSlot& echo = echoes_[i];
    echo.host = slot.backend;
    echo.thread = std::make_unique<Thread>(
        cluster.host(slot.backend).core(rx_core_), "open-loop-echo");
    echo.thread->set_body([this, i](Core& core, Thread& thread) {
      echo_quantum(core, thread, i);
    });
  }
}

Stack& OpenLoopEngine::client_stack() { return cluster_->host(0).stack(); }

void OpenLoopEngine::start() {
  for (int h = 1; h < cluster_->num_hosts(); ++h) {
    cluster_->host(h).stack().listen(
        rx_core_, wl_.listen_backlog,
        [this](Core&, TransportSocket& sock) { on_accept(sock); });
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) open_slot(i);
  schedule_next_arrival();
}

void OpenLoopEngine::open_slot(std::size_t i) {
  ClientSlot& slot = slots_[i];
  slot.up = false;
  slot.failed = false;
  slot.serves = 0;
  slot.opened_at = cluster_->shard_loop(0).now();
  const std::uint64_t generation = ++slot.generation;
  const int flow = cluster_->open_flow(
      {0, slot.core}, {slot.backend, rx_core_}, wl_.syn_retry,
      wl_.max_syn_retries, [this, i, generation](bool established) {
        on_established(i, generation, established);
      });
  slot.flow = flow;
  flow_to_slot_[flow] = i;
  ++conns_opened_;
  TransportSocket& sock = client_stack().socket(flow);
  slot.sock = &sock;
  sock.set_rx_waiter(slot.thread.get());
  sock.set_tx_waiter(slot.thread.get());
  sock.set_error_callback([this, i, flow](SocketError) {
    ClientSlot& s = slots_[i];
    if (s.flow != flow) return;  // a stale connection's last gasp
    s.up = false;
    s.failed = true;
    s.thread->notify();
  });
}

void OpenLoopEngine::on_established(std::size_t i, std::uint64_t generation,
                                    bool established) {
  ClientSlot& slot = slots_[i];
  if (slot.generation != generation) return;  // the slot moved on
  if (established) {
    slot.up = true;
    connect_latency_.record(cluster_->shard_loop(0).now() - slot.opened_at);
    if (slot.connect_span >= 0) {
      obs_->requests(0).finish(slot.connect_span,
                               cluster_->shard_loop(0).now());
      slot.connect_span = -1;
    }
    slot.thread->notify();
    return;
  }
  // SYN retry budget exhausted: the orphan client socket is still in the
  // table; the thread quantum aborts + destroys it and dials again.
  slot.failed = true;
  slot.thread->notify();
}

void OpenLoopEngine::on_accept(TransportSocket& sock) {
  auto it = flow_to_slot_.find(sock.flow());
  require(it != flow_to_slot_.end(), "accepted a flow the engine never opened");
  const std::size_t i = it->second;
  const int flow = sock.flow();
  EchoSlot& echo = echoes_[i];
  echo.sock = &sock;
  echo.flow = flow;
  echo.serves = 0;       // serve ordinals restart with the fresh flow
  echo.service_span = -1;
  sock.set_rx_waiter(echo.thread.get());
  sock.set_tx_waiter(echo.thread.get());
  // Note: `expected` is deliberately NOT cleared here — the client may
  // already have issued the first leaf (its push is ordered after the
  // server processed this connection's SYN, so it is never stale).
  sock.set_error_callback([this, i, flow](SocketError) {
    EchoSlot& e = echoes_[i];
    if (e.flow != flow) return;
    e.sock = nullptr;
    e.request_received = 0;
    e.response_pending = 0;
    e.expected.clear();
    e.service_span = -1;  // the half-served request died with the flow
  });
  sock.set_fin_callback([this, i, flow](Core&) {
    // Graceful churn close: the stack retires the socket right after
    // this returns.  The connection was quiescent, so there is no
    // partial request/response state worth keeping.
    EchoSlot& e = echoes_[i];
    if (e.flow != flow) return;
    e.sock = nullptr;
    e.request_received = 0;
    e.response_pending = 0;
    e.expected.clear();
  });
  echo.thread->notify();
}

void OpenLoopEngine::schedule_next_arrival() {
  cluster_->shard_loop(0).schedule_at(arrivals_.next(), [this] { on_arrival(); });
}

void OpenLoopEngine::on_arrival() {
  // Loop context, no CPU cost: the arrival comes from an external load
  // generator, not from the hosts under test.
  const Nanos now = cluster_->shard_loop(0).now();
  const std::uint64_t id = records_.size();
  RequestRecord record;
  record.id = id;
  record.arrival = now;
  record.fan_out = wl_.fan_out;
  records_.push_back(record);
  outstanding_.push_back(wl_.fan_out);
  // Root span for the whole fan-out tree, sampled on the request id (the
  // leaves issue later, from client quanta, and parent under it).
  std::uint64_t tid = 0;
  std::int32_t root = -1;
  if (obs_ != nullptr && obs_->tracing()) {
    obs::RequestTracer& tracer = obs_->requests(0);
    if (tracer.sampled(/*flow=*/-1, static_cast<std::int64_t>(id))) {
      tid = tracer.make_trace_id(-1, static_cast<std::int64_t>(id));
      root = tracer.start(obs::ReqKind::request, tid, 0, /*flow=*/-1,
                          obs::ReqClass::open_loop, /*attempt=*/0,
                          static_cast<std::int64_t>(id), /*bytes=*/0, now);
    }
  }
  trace_ids_.push_back(tid);
  root_spans_.push_back(root);
  for (int k = 0; k < wl_.fan_out; ++k) {
    const Bytes size = sizes_.next();
    records_[id].bytes += size;
    // Consecutive slots hit distinct backends (slot -> backend is
    // round-robin too), so a fan-out tree spans the cluster.
    ClientSlot& slot = slots_[cursor_ % slots_.size()];
    ++cursor_;
    slot.queue.push_back(Leaf{id, size});
    slot.thread->notify();
  }
  schedule_next_arrival();
}

void OpenLoopEngine::recover_slot(Core& core, Thread& thread, std::size_t i) {
  ClientSlot& slot = slots_[i];
  const Nanos now = core.loop().now();
  if (slot.attempt_span >= 0) {
    obs_->requests(0).finish(slot.attempt_span, now, /*ok=*/false);
    slot.attempt_span = -1;
  }
  if (slot.connect_span >= 0) {
    obs_->requests(0).finish(slot.connect_span, now, /*ok=*/false);
    slot.connect_span = -1;
  }
  if (slot.sock != nullptr) {
    if (!slot.sock->dead()) {
      // Connect failure: nothing was ever established, tear down the
      // half-open socket (fires the error callback; the flow guard
      // makes that a no-op once we reopen below).
      slot.sock->abort(core, SocketError::etimedout);
    }
    client_stack().destroy_socket(slot.flow);
  }
  flow_to_slot_.erase(slot.flow);
  slot.sock = nullptr;
  if (slot.active) {
    records_[slot.leaf.request].redispatches += 1;
    slot.queue.push_front(slot.leaf);
    slot.active = false;
    slot.request_pending = 0;
    slot.response_pending = 0;
    slot.first_byte_seen = false;
  }
  open_slot(i);
  // The redial is causally part of the requeued leaf's request: trace
  // the connect leg under that leaf's root.
  if (obs_ != nullptr && obs_->tracing() && !slot.queue.empty()) {
    const std::uint64_t id = slot.queue.front().request;
    if (trace_ids_[id] != 0) {
      obs::RequestTracer& tracer = obs_->requests(0);
      slot.connect_span = tracer.start(
          obs::ReqKind::connect, trace_ids_[id],
          tracer.span_id_of(root_spans_[id]), slot.flow,
          obs::ReqClass::open_loop, records_[id].redispatches, /*key=*/-1,
          /*bytes=*/0, now);
    }
  }
  thread.finish_quantum(/*more_work=*/false);
}

void OpenLoopEngine::client_quantum(Core& core, Thread& thread,
                                    std::size_t i) {
  ClientSlot& slot = slots_[i];
  if (slot.failed) {
    recover_slot(core, thread, i);
    return;
  }
  if (!slot.up || slot.sock == nullptr) {
    thread.finish_quantum(/*more_work=*/false);
    return;
  }
  TransportSocket& sock = *slot.sock;
  if (!slot.active) {
    if (slot.queue.empty()) {
      thread.finish_quantum(/*more_work=*/false);
      return;
    }
    slot.leaf = slot.queue.front();
    slot.queue.pop_front();
    slot.active = true;
    slot.first_byte_seen = false;
    slot.issued_at = core.loop().now();
    RequestRecord& r = records_[slot.leaf.request];
    if (r.dispatch < 0) r.dispatch = slot.issued_at;
    if (slot.serves == 0) r.fresh_conn = true;
    echoes_[i].expected.push_back(slot.leaf.size);
    slot.response_pending = slot.leaf.size;
    trace_leaf_issue(i, slot.issued_at);
    slot.request_pending = slot.leaf.size - sock.send(core, slot.leaf.size);
    thread.finish_quantum(/*more_work=*/false);
    return;
  }
  if (slot.request_pending > 0) {
    slot.request_pending -= sock.send(core, slot.request_pending);
    thread.finish_quantum(/*more_work=*/false);
    return;
  }
  const Bytes copied = sock.recv(core, slot.response_pending);
  if (copied > 0 && !slot.first_byte_seen) {
    slot.first_byte_seen = true;
    RequestRecord& r = records_[slot.leaf.request];
    if (r.first_byte < 0) r.first_byte = core.loop().now();
  }
  slot.response_pending -= std::min(copied, slot.response_pending);
  if (slot.response_pending > 0) {
    thread.finish_quantum(/*more_work=*/sock.readable() > 0);
    return;
  }
  complete_leaf(core, i);
  // complete_leaf may have churned the connection away; re-read state.
  thread.finish_quantum(
      /*more_work=*/!slot.queue.empty() ||
      (slot.sock != nullptr && slot.sock->readable() > 0));
}

void OpenLoopEngine::trace_leaf_issue(std::size_t i, Nanos now) {
  ClientSlot& slot = slots_[i];
  slot.attempt_span = -1;
  if (obs_ == nullptr || !obs_->tracing()) return;
  const std::uint64_t tid = trace_ids_[slot.leaf.request];
  if (tid == 0) return;
  obs::RequestTracer& tracer = obs_->requests(0);
  const std::int32_t attempt = records_[slot.leaf.request].redispatches;
  const std::int64_t key = static_cast<std::int64_t>(slot.serves);
  slot.attempt_span = tracer.start(
      obs::ReqKind::attempt, tid,
      tracer.span_id_of(root_spans_[slot.leaf.request]), slot.flow,
      obs::ReqClass::open_loop, attempt, key, slot.leaf.size, now);
  const std::int32_t xmit = tracer.start(
      obs::ReqKind::xmit, tid, tracer.span_id_of(slot.attempt_span), slot.flow,
      obs::ReqClass::open_loop, attempt, key, slot.leaf.size, now);
  if (xmit >= 0) {
    obs::RequestTracer* rt = &tracer;
    slot.sock->arm_tx_watch(slot.leaf.size,
                            [rt, xmit](Nanos at) { rt->finish(xmit, at); });
  }
}

void OpenLoopEngine::complete_leaf(Core& core, std::size_t i) {
  ClientSlot& slot = slots_[i];
  const Nanos now = core.loop().now();
  leaf_latency_.record(now - slot.issued_at);
  if (slot.attempt_span >= 0) {
    obs_->requests(0).finish(slot.attempt_span, now);
    slot.attempt_span = -1;
  }
  ++slot.serves;
  slot.active = false;
  const std::uint64_t id = slot.leaf.request;
  if (--outstanding_[static_cast<std::size_t>(id)] == 0) {
    RequestRecord& r = records_[id];
    r.completion = now;
    ++completed_requests_;
    latency_.record(now - r.arrival);
    if (obs_ != nullptr) {
      obs_->request_latency(0, obs::ReqClass::open_loop, now - r.arrival, now);
      if (obs_->tracing() && root_spans_[id] >= 0) {
        obs_->requests(0).finish(root_spans_[id], now);
        root_spans_[id] = -1;
      }
    }
  }
  if (wl_.churn_prob > 0 && churn_rng_.chance(wl_.churn_prob)) {
    TransportSocket& sock = *slot.sock;
    // close() needs a quiescent connection; an unacked tail (the
    // request's last ACK can trail the response) just skips this
    // churn opportunity.
    if (sock.send_queue_empty() && sock.readable() == 0 &&
        sock.ofo_bytes() == 0) {
      flow_to_slot_.erase(slot.flow);
      slot.sock = nullptr;
      slot.up = false;
      client_stack().close(core, slot.flow, wl_.time_wait);
      ++conns_closed_;
      open_slot(i);
    }
  }
}

void OpenLoopEngine::echo_quantum(Core& core, Thread& thread, std::size_t i) {
  EchoSlot& echo = echoes_[i];
  if (echo.sock == nullptr) {
    thread.finish_quantum(/*more_work=*/false);
    return;
  }
  TransportSocket& sock = *echo.sock;
  // Flush a response blocked on send-buffer space.
  if (echo.response_pending > 0) {
    echo.response_pending -= sock.send(core, echo.response_pending);
    if (echo.response_pending > 0) {
      thread.finish_quantum(/*more_work=*/false);
      return;
    }
    if (echo.service_span >= 0) {
      obs_->requests(echo.host).finish(echo.service_span, core.loop().now());
      echo.service_span = -1;
    }
  }
  bool more = false;
  if (!echo.expected.empty()) {
    const Bytes remaining = echo.expected.front() - echo.request_received;
    if (remaining > 0 && sock.readable() > 0) {
      echo.request_received += sock.recv(core, remaining);
    }
    if (echo.request_received >= echo.expected.front()) {
      const Bytes size = echo.expected.front();
      echo.expected.pop_front();
      echo.request_received -= size;
      if (obs_ != nullptr && obs_->tracing()) {
        // Recorded unconditionally (the root's sampling decision lives
        // on the client); unsampled service spans drop at the join.
        echo.service_span = obs_->requests(echo.host).start(
            obs::ReqKind::service, 0, 0, echo.flow, {}, /*attempt=*/0,
            echo.serves, size, core.loop().now());
      }
      ++echo.serves;
      echo.response_pending = size - sock.send(core, size);
      if (echo.response_pending == 0 && echo.service_span >= 0) {
        obs_->requests(echo.host).finish(echo.service_span, core.loop().now());
        echo.service_span = -1;
      }
      more = sock.readable() > 0;
    }
  }
  thread.finish_quantum(more);
}

void OpenLoopEngine::reset_window() {
  latency_.clear();
  leaf_latency_.clear();
  connect_latency_.clear();
}

void OpenLoopEngine::harvest(Nanos measure_start, Nanos measure_end,
                             Metrics& metrics) {
  metrics.has_workload = true;
  Metrics::WorkloadMetrics& w = metrics.workload;
  Histogram request_latency;
  Histogram queue_delay;
  Histogram first_byte;
  for (const RequestRecord& r : records_) {
    if (r.arrival < measure_start || r.arrival >= measure_end) continue;
    ++w.offered;
    w.redispatches += static_cast<std::uint64_t>(r.redispatches);
    if (r.completion >= 0) {
      ++w.completed;
      request_latency.record(r.completion - r.arrival);
      if (wl_.slo > 0 && r.completion - r.arrival > wl_.slo) {
        ++w.slo_violations;
      }
    } else {
      ++w.incomplete;
    }
    if (r.dispatch >= 0) queue_delay.record(r.dispatch - r.arrival);
    if (r.first_byte >= 0) first_byte.record(r.first_byte - r.arrival);
  }
  const double seconds = to_seconds(measure_end - measure_start);
  if (seconds > 0) {
    w.offered_rps = static_cast<double>(w.offered) / seconds;
    w.completed_rps = static_cast<double>(w.completed) / seconds;
  }
  w.latency_p50 = request_latency.percentile(0.5);
  w.latency_p95 = request_latency.percentile(0.95);
  w.latency_p99 = request_latency.percentile(0.99);
  w.latency_p999 = request_latency.percentile(0.999);
  w.queue_p50 = queue_delay.percentile(0.5);
  w.queue_p99 = queue_delay.percentile(0.99);
  w.first_byte_p99 = first_byte.percentile(0.99);
  w.connect_p99 = connect_latency_.percentile(0.99);
  w.leaf_p99 = leaf_latency_.percentile(0.99);
  w.fanout_leaves = leaf_latency_.count();
  w.conns_opened = conns_opened_;
  w.conns_closed = conns_closed_;
  for (int h = 0; h < cluster_->num_hosts(); ++h) {
    const ChurnStats& churn = cluster_->host(h).stack().churn();
    w.syns_sent += churn.syns_sent;
    w.syn_retries += churn.syn_retries;
    w.syns_received += churn.syns_received;
    w.listen_overflows += churn.listen_overflows;
    w.accepts += churn.accepts;
    w.connect_failures += churn.connect_failures;
    w.time_wait_entered += churn.time_wait_entered;
    w.time_wait_reaped += churn.time_wait_reaped;
    w.time_wait_peak = std::max(w.time_wait_peak, churn.time_wait_peak);
    w.socket_table_peak =
        std::max(w.socket_table_peak, churn.socket_table_peak);
  }
  metrics.workload_records = records_;
}

}  // namespace hostsim::workload
