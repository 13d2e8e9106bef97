// Resilient-RPC client policy: per-request deadlines, bounded retries
// with exponential backoff and deterministic jitter, and a circuit
// breaker that sheds load after consecutive timeouts.
//
// Kept dependency-free (units only) so core config can embed it without
// pulling in the application layer.
#ifndef HOSTSIM_APP_RPC_RESILIENCE_H
#define HOSTSIM_APP_RPC_RESILIENCE_H

#include "sim/units.h"

namespace hostsim {

struct RpcResilienceConfig {
  /// Master switch.  Off by default, so rpc clients are plain ping-pong;
  /// the block is part of the canonical config JSON either way.
  bool enabled = false;

  /// Per-request deadline: a response not received within this window
  /// counts as a timeout and triggers retry/backoff handling.
  Nanos deadline = 5 * kMillisecond;

  /// Retries after the first attempt before a request is declared
  /// permanently failed; 0 turns every timeout into a failure.
  int max_retries = 3;

  /// Exponential backoff between attempts: base * 2^(attempt-1), capped.
  Nanos backoff_base = 1 * kMillisecond;
  Nanos backoff_cap = 16 * kMillisecond;

  /// Circuit breaker: after this many consecutive failures the client
  /// stops issuing requests for `breaker_cooldown`, then half-opens with
  /// a single probe.  0 disables the breaker.
  int breaker_threshold = 4;
  Nanos breaker_cooldown = 10 * kMillisecond;
};

}  // namespace hostsim

#endif  // HOSTSIM_APP_RPC_RESILIENCE_H
