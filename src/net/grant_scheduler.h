// Receiver-driven transport support (paper §3.3 / §4).
//
// The paper's incast analysis ends with: "the sender-driven nature of
// the TCP protocol precludes the receiver to control the number of
// active flows per core, resulting in unavoidable CPU inefficiency.  We
// believe receiver-driven protocols can provide such control."  This
// scheduler provides exactly that control on top of the existing stack:
// when a stack runs in receiver-driven mode, a socket's advertised
// window is no longer buffer-derived — the scheduler grants credit to at
// most kMaxActive flows per application core, round-robin, so DMA'd
// data is copied before competing flows can evict it from the DDIO ways
// (pHost/Homa/NDP-style semantics at the flow-control layer).
#ifndef HOSTSIM_NET_GRANT_SCHEDULER_H
#define HOSTSIM_NET_GRANT_SCHEDULER_H

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "cpu/core.h"
#include "sim/units.h"

namespace hostsim {

class TcpSocket;

/// Credit quantum a receiver grants an active flow (here) or message
/// (HomaTransport) at a time.
inline constexpr Bytes kGrantBytes = 512 * kKiB;
/// Blind first window a flow or message may send before any grant.
inline constexpr Bytes kUnscheduledBytes = 64 * kKiB;

class GrantScheduler {
 public:
  /// Flows per application core that hold credit at once.
  static constexpr int kMaxActive = 2;

  GrantScheduler() = default;
  GrantScheduler(const GrantScheduler&) = delete;
  GrantScheduler& operator=(const GrantScheduler&) = delete;

  /// Registers a receiver-driven socket (called at socket creation).
  void enroll(TcpSocket& socket);

  /// Called by a socket whenever in-order data arrived or was consumed:
  /// rotates credit to the next waiting flow when quanta complete.
  /// Must run in a task context (grants send window-update ACKs).
  void on_progress(Core& core, TcpSocket& socket);

  std::uint64_t grants_issued() const { return grants_issued_; }

 private:
  struct CoreQueue {
    std::deque<TcpSocket*> active;   ///< flows currently holding credit
    std::deque<TcpSocket*> waiting;  ///< flows queued for credit
  };

  void pump(Core& core, CoreQueue& queue);

  std::unordered_map<int, CoreQueue> per_core_;
  std::uint64_t grants_issued_ = 0;
};

}  // namespace hostsim

#endif  // HOSTSIM_NET_GRANT_SCHEDULER_H
