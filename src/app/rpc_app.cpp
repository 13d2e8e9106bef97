#include "app/rpc_app.h"

#include <algorithm>
#include <utility>

#include "sim/contract.h"

namespace hostsim {
namespace {

/// Deterministic backoff jitter: a seeded uniform draw in [0, kJitter] of
/// the computed backoff is added, decorrelating retry storms across
/// clients without breaking run-to-run reproducibility.
constexpr double kJitter = 0.5;

}  // namespace

RpcClient::RpcClient(Core& core, TransportSocket& socket, Bytes rpc_size,
                     const RpcResilienceConfig& policy, Rng rng,
                     ReconnectFn reconnect)
    : socket_(&socket),
      rpc_size_(rpc_size),
      policy_(policy),
      cls_(policy.enabled ? obs::ReqClass::rpc_resilient : obs::ReqClass::rpc),
      rng_(rng),
      reconnect_(std::move(reconnect)),
      thread_(core, "rpc-client"),
      deadline_timer_(core.loop(), [this] { on_deadline(); }),
      backoff_timer_(core.loop(), [this] {
        waiting_backoff_ = false;
        if (backoff_span_ >= 0) {
          obs_->requests(host_).finish(backoff_span_, loop_->now());
          backoff_span_ = -1;
        }
        thread_.notify();
      }),
      loop_(&core.loop()) {
  if (policy_.enabled) {
    require(policy_.deadline > 0, "resilient client needs a deadline");
    require(policy_.max_retries >= 0, "retry budget must be non-negative");
    require(static_cast<bool>(reconnect_),
            "resilient client needs reconnect");
  }
  bind_socket();
  thread_.set_body(
      [this](Core& c, Thread& thread) { run_quantum(c, thread); });
}

void RpcClient::bind_socket() {
  socket_->set_rx_waiter(&thread_);
  socket_->set_tx_waiter(&thread_);
  if (!policy_.enabled) {
    // Like netperf, a reset connection just ends the client: the app
    // observes the error (a dead socket's send()/recv() return 0, so the
    // thread blocks for good) and has nothing to retry.
    socket_->set_error_callback([](SocketError) {});
    return;
  }
  socket_->set_error_callback([this](SocketError error) {
    if (handling_failure_) return;  // a teardown we initiated ourselves
    conn_error_ = error;
    failure_pending_ = true;
    thread_.notify();
  });
}

void RpcClient::on_deadline() {
  if (response_pending_ == 0) return;  // the response landed in time
  failure_pending_ = true;
  thread_.notify();
}

void RpcClient::run_quantum(Core& c, Thread& thread) {
  if (waiting_backoff_) {
    // Spurious wakeup (e.g. late data on the old connection's waiters)
    // while backing off: stay blocked until the timer fires.
    thread.finish_quantum(/*more_work=*/false);
    return;
  }
  if (failure_pending_) {
    failure_pending_ = false;
    thread.finish_quantum(handle_failure(c));
    return;
  }
  // Finish sending a partially accepted request first.
  if (request_pending_ > 0) {
    request_pending_ -= socket_->send(c, request_pending_);
    thread.finish_quantum(/*more_work=*/false);
    return;
  }
  if (response_pending_ == 0) {
    // Issue the next attempt (a fresh request when attempt_ is 0).
    if (attempt_ == 0) first_issued_at_ = c.loop().now();
    ++attempt_;
    response_pending_ = rpc_size_;
    trace_attempt(c.loop().now());
    request_pending_ = rpc_size_ - socket_->send(c, rpc_size_);
    if (policy_.enabled) deadline_timer_.arm_after(policy_.deadline);
    thread.finish_quantum(/*more_work=*/false);
    return;
  }
  const Bytes copied = socket_->recv(c, response_pending_);
  response_pending_ -= std::min(copied, response_pending_);
  if (response_pending_ == 0) {
    deadline_timer_.cancel();
    ++counters_.completed;
    const Nanos done_at = c.loop().now();
    latency_.record(done_at - first_issued_at_);
    if (obs_ != nullptr) {
      obs_->request_latency(host_, cls_, done_at - first_issued_at_, done_at);
      if (obs_->tracing()) {
        obs::RequestTracer& tracer = obs_->requests(host_);
        tracer.finish(attempt_span_, done_at);
        tracer.finish(root_span_, done_at);
        attempt_span_ = root_span_ = -1;
        trace_id_ = 0;
      }
    }
    attempt_ = 0;
    consecutive_failures_ = 0;  // closes a half-open breaker
    // Ping-pong: immediately send the next request.
    thread.finish_quantum(/*more_work=*/true);
  } else {
    thread.finish_quantum(/*more_work=*/socket_->readable() > 0);
  }
}

bool RpcClient::handle_failure(Core& c) {
  deadline_timer_.cancel();
  if (conn_error_ == SocketError::econnreset) {
    ++counters_.resets;
  } else {
    ++counters_.timeouts;  // deadline expiry or an ETIMEDOUT abort
  }
  conn_error_ = SocketError::none;
  ++consecutive_failures_;

  const bool traced = obs_ != nullptr && obs_->tracing();
  if (traced) {
    obs_->requests(host_).finish(attempt_span_, c.loop().now(), /*ok=*/false);
    attempt_span_ = -1;
  }

  // The outstanding request cannot be salvaged: retrying over the same
  // byte stream would desynchronize the echo framing, so every failed
  // attempt reconnects (fresh flow id, server rebound by the hook).
  std::int32_t connect_span = -1;
  if (traced && trace_id_ != 0) {
    obs::RequestTracer& tracer = obs_->requests(host_);
    connect_span = tracer.start(obs::ReqKind::connect, trace_id_,
                                tracer.span_id_of(root_span_),
                                socket_->flow(), cls_, attempt_,
                                /*key=*/-1, /*bytes=*/0, c.loop().now());
  }
  handling_failure_ = true;
  socket_ = reconnect_(c, socket_->flow());
  handling_failure_ = false;
  require(socket_ != nullptr, "reconnect must produce a socket");
  ++counters_.reconnects;
  bind_socket();
  response_pending_ = 0;
  request_pending_ = 0;
  conn_ordinal_ = 0;  // serve ordinals restart with the fresh flow
  if (connect_span >= 0) {
    obs_->requests(host_).finish(connect_span, c.loop().now());
  }

  const bool budget_spent = attempt_ > policy_.max_retries;
  if (budget_spent) {
    ++counters_.failed;
    attempt_ = 0;  // give up; the next quantum issues a fresh request
    if (traced) {
      obs_->requests(host_).finish(root_span_, c.loop().now(), /*ok=*/false);
      root_span_ = -1;
      trace_id_ = 0;
    }
  } else {
    ++counters_.retries;
  }

  Nanos delay = 0;
  if (policy_.breaker_threshold > 0 &&
      consecutive_failures_ >= policy_.breaker_threshold) {
    // Open (or re-open after a failed half-open probe): shed load for
    // the cooldown, then let a single probe through.
    ++counters_.breaker_opens;
    delay = policy_.breaker_cooldown;
  } else if (!budget_spent) {
    const int exponent = std::min(attempt_ - 1, 20);
    const Nanos backoff = std::min<Nanos>(policy_.backoff_base << exponent,
                                          policy_.backoff_cap);
    delay = backoff +
            static_cast<Nanos>(kJitter * static_cast<double>(backoff) *
                               rng_.next_double());
  }
  if (delay > 0) {
    if (traced && trace_id_ != 0) {
      obs::RequestTracer& tracer = obs_->requests(host_);
      backoff_span_ = tracer.start(obs::ReqKind::backoff, trace_id_,
                                   tracer.span_id_of(root_span_),
                                   socket_->flow(), cls_, attempt_,
                                   /*key=*/-1, /*bytes=*/0, c.loop().now());
    }
    waiting_backoff_ = true;
    backoff_timer_.arm_after(delay);
    return false;
  }
  return true;
}

void RpcClient::trace_attempt(Nanos now) {
  if (obs_ == nullptr || !obs_->tracing()) return;
  obs::RequestTracer& tracer = obs_->requests(host_);
  const int flow = socket_->flow();
  const std::int64_t ordinal = conn_ordinal_++;
  if (attempt_ == 1) {
    // First attempt of a fresh request: the sampling decision and trace
    // id are pure hashes of (flow, ordinal) at first issue.
    root_span_ = -1;
    trace_id_ = 0;
    if (!tracer.sampled(flow, ordinal)) return;
    trace_id_ = tracer.make_trace_id(flow, ordinal);
    root_span_ = tracer.start(obs::ReqKind::request, trace_id_, 0, flow, cls_,
                              /*attempt=*/0, ordinal, rpc_size_, now);
  }
  if (trace_id_ == 0) return;
  attempt_span_ = tracer.start(obs::ReqKind::attempt, trace_id_,
                               tracer.span_id_of(root_span_), flow, cls_,
                               attempt_ - 1, ordinal, rpc_size_, now);
  const std::int32_t xmit = tracer.start(
      obs::ReqKind::xmit, trace_id_, tracer.span_id_of(attempt_span_), flow,
      cls_, attempt_ - 1, ordinal, rpc_size_, now);
  if (xmit >= 0) {
    obs::RequestTracer* rt = &tracer;
    socket_->arm_tx_watch(rpc_size_,
                          [rt, xmit](Nanos at) { rt->finish(xmit, at); });
  }
}

void RpcServer::rebind(TransportSocket& socket) {
  bind_socket(socket);
  request_received_ = 0;
  response_pending_ = 0;
  serve_ordinal_ = 0;
  service_span_ = -1;  // the half-served request died with the old socket
}

void RpcServer::finish_service(Nanos now) {
  if (service_span_ < 0) return;
  obs_->requests(host_).finish(service_span_, now);
  service_span_ = -1;
}

void RpcServer::bind_socket(TransportSocket& socket) {
  socket_ = &socket;
  socket_->set_rx_waiter(&thread_);
  socket_->set_tx_waiter(&thread_);
  // A reset connection ends this server process, as a client's crash
  // ends a netperf server; a reconnecting client rebinds a fresh one.
  socket_->set_error_callback([](SocketError) {});
}

RpcServer::RpcServer(Core& core, TransportSocket& socket, Bytes rpc_size)
    : rpc_size_(rpc_size), thread_(core, "rpc-server") {
  bind_socket(socket);
  thread_.set_body([this](Core& c, Thread& thread) {
    // Flush a response blocked on send-buffer space.
    if (response_pending_ > 0) {
      response_pending_ -= socket_->send(c, response_pending_);
      if (response_pending_ > 0) {
        thread.finish_quantum(/*more_work=*/false);
        return;
      }
      finish_service(c.loop().now());
    }
    if (socket_->readable() > 0) {
      request_received_ += socket_->recv(c, rpc_size_);
    }
    bool more = false;
    if (request_received_ >= rpc_size_) {
      request_received_ -= rpc_size_;
      ++served_;
      if (obs_ != nullptr && obs_->tracing()) {
        obs::RequestTracer& tracer = obs_->requests(host_);
        const std::int64_t ordinal = serve_ordinal_++;
        // Same pure-hash decision the client made for this (flow,
        // ordinal): trace context propagates without any in-band bytes.
        if (tracer.sampled(socket_->flow(), ordinal)) {
          service_span_ = tracer.start(obs::ReqKind::service, 0, 0,
                                       socket_->flow(), {}, /*attempt=*/0,
                                       ordinal, rpc_size_, c.loop().now());
        }
      }
      response_pending_ = rpc_size_ - socket_->send(c, rpc_size_);
      if (response_pending_ == 0) finish_service(c.loop().now());
      more = request_received_ >= rpc_size_ || socket_->readable() > 0;
    }
    thread.finish_quantum(more);
  });
}

}  // namespace hostsim
