// netperf-like ping-pong RPC applications over long-lived connections.
//
// A client sends a request of `rpc_size` bytes and waits for an equally
// sized response before sending the next request (netperf TCP_RR with
// equal request/response sizes, paper §3.7).  Server side follows
// netperf's process-per-connection model: every connection is served by
// its own thread, so colocated connections pay a scheduler wake/switch
// per transaction — exactly the short-flow scheduling overhead the paper
// measures (figs. 10 and 11).
//
// With a resilience policy (RpcResilienceConfig::enabled) the client
// adds per-request deadlines, a bounded retry budget with exponential
// backoff + deterministic jitter, connection recovery through a
// reconnect hook, and a circuit breaker that sheds load after
// consecutive failures.  Failure handling is connection-granular: a
// byte stream offers no request framing to cancel or dedup an
// outstanding request, so every failed attempt tears the connection
// down and retries over a fresh one (fresh flow id — stale in-flight
// frames answer with RSTs instead of corrupting the new connection's
// sequence space).
#ifndef HOSTSIM_APP_RPC_APP_H
#define HOSTSIM_APP_RPC_APP_H

#include <cstdint>
#include <functional>

#include "app/rpc_resilience.h"
#include "cpu/scheduler.h"
#include "net/transport.h"
#include "obs/observer.h"
#include "sim/rng.h"
#include "sim/timer.h"

namespace hostsim {

class RpcClient {
 public:
  struct Counters {
    std::uint64_t completed = 0;
    std::uint64_t retries = 0;        ///< re-issued attempts
    std::uint64_t timeouts = 0;       ///< deadline expiries + ETIMEDOUT
    std::uint64_t resets = 0;         ///< ECONNRESET failures
    std::uint64_t failed = 0;         ///< permanent failures (budget spent)
    std::uint64_t breaker_opens = 0;  ///< cooldowns entered
    std::uint64_t reconnects = 0;     ///< fresh connections established
  };

  /// Replaces the dead connection with a fresh one between the same
  /// endpoints and returns the new local socket.  The workload builder
  /// wraps Cluster::reconnect_flow here and rebinds the peer RpcServer.
  using ReconnectFn = std::function<TransportSocket*(Core&, int old_flow)>;

  /// With the default (disabled) policy the client is plain ping-pong:
  /// no deadline, and — like netperf — a reset connection just ends it.
  /// An enabled policy needs `reconnect`; `rng` should then be forked
  /// from the loop's root generator at build time (after cluster
  /// construction, so fault/wire streams are untouched); it only feeds
  /// backoff jitter, keeping runs seed-deterministic.
  RpcClient(Core& core, TransportSocket& socket, Bytes rpc_size,
            const RpcResilienceConfig& policy = {}, Rng rng = Rng(),
            ReconnectFn reconnect = {});

  /// Issues the first request.
  void start() { thread_.notify(); }

  /// Attaches request tracing / latency monitoring (class "rpc", or
  /// "rpc_resilient" with the policy on): the root span covers first
  /// issue -> completion or permanent failure; retries, backoffs,
  /// reconnects, and transmits are child spans under it.
  void set_observer(obs::Observer* obs, int host) {
    obs_ = obs;
    host_ = host;
  }

  Thread& thread() { return thread_; }
  const Counters& counters() const { return counters_; }
  std::uint64_t completed() const { return counters_.completed; }

  /// Per-transaction latency (first issue -> response fully read, so a
  /// retried request's latency includes its backoff waits).
  const Histogram& latency() const { return latency_; }
  void reset_latency() { latency_.clear(); }

 private:
  void bind_socket();
  void run_quantum(Core& core, Thread& thread);
  /// Accounts one failed attempt, reconnects, and schedules the next
  /// move; returns true when the thread should continue immediately
  /// (no backoff), false when the backoff timer will wake it.
  bool handle_failure(Core& core);
  void on_deadline();
  /// Opens the root (first attempt only), attempt, and xmit spans for
  /// the attempt being issued at `now`.
  void trace_attempt(Nanos now);

  TransportSocket* socket_;
  Bytes rpc_size_;
  RpcResilienceConfig policy_;
  obs::ReqClass cls_;  ///< request class for the monitor and the tracer
  Rng rng_;
  ReconnectFn reconnect_;
  Thread thread_;
  Timer deadline_timer_;
  Timer backoff_timer_;

  Bytes response_pending_ = 0;  ///< response bytes still expected
  Bytes request_pending_ = 0;   ///< request bytes not yet accepted
  Nanos first_issued_at_ = 0;   ///< first attempt of the current request
  int attempt_ = 0;             ///< attempts so far for the current request
  int consecutive_failures_ = 0;
  bool failure_pending_ = false;   ///< deadline/error awaiting handling
  bool waiting_backoff_ = false;   ///< blocked until the backoff timer
  bool handling_failure_ = false;  ///< suppress self-inflicted errors
  SocketError conn_error_ = SocketError::none;

  Counters counters_;
  Histogram latency_;

  obs::Observer* obs_ = nullptr;
  int host_ = 0;
  EventLoop* loop_ = nullptr;
  std::uint64_t trace_id_ = 0;      ///< current request's trace (0 = off)
  std::int64_t conn_ordinal_ = 0;   ///< requests issued on this connection
  std::int32_t root_span_ = -1;
  std::int32_t attempt_span_ = -1;
  std::int32_t backoff_span_ = -1;
};

/// One server process (thread) bound to one connection, echoing each
/// complete request with an equally sized response.
class RpcServer {
 public:
  RpcServer(Core& core, TransportSocket& socket, Bytes rpc_size);

  Thread& thread() { return thread_; }
  std::uint64_t served() const { return served_; }

  /// Attaches request tracing: serve ordinals key the harvest-time join
  /// against the client's attempt spans on the same flow.
  void set_observer(obs::Observer* obs, int host) {
    obs_ = obs;
    host_ = host;
  }

  /// Rebinds the server to a fresh connection after a client reconnect:
  /// the old socket is gone, and any partially received request or
  /// partially sent response died with it.  Serve ordinals restart with
  /// the fresh flow id, mirroring the client's per-connection counter.
  void rebind(TransportSocket& socket);

 private:
  void bind_socket(TransportSocket& socket);
  /// Closes the open service span at response-fully-sent.
  void finish_service(Nanos now);

  TransportSocket* socket_ = nullptr;
  Bytes rpc_size_;
  Bytes request_received_ = 0;
  Bytes response_pending_ = 0;  ///< response bytes not yet accepted
  Thread thread_;
  std::uint64_t served_ = 0;
  obs::Observer* obs_ = nullptr;
  int host_ = 0;
  std::int64_t serve_ordinal_ = 0;  ///< requests served on this connection
  std::int32_t service_span_ = -1;
};

}  // namespace hostsim

#endif  // HOSTSIM_APP_RPC_APP_H
