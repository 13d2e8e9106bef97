// The legacy sender-driven TCP protocol behind the net::Transport seam.
//
// This is an extraction, not a rewrite: the per-frame rx path (copybreak
// ACK fast path, skb construction, per-queue GRO, RPS/RFS cross-core
// requeueing) moved here from Stack::napi_poll byte-for-byte, so every
// default-transport run is bit-identical to the pre-seam stack (the
// legacy pinning test holds this to account).  The sockets it builds are
// plain TcpSockets; the receiver-driven GrantScheduler mode also lives
// here, enrolled at socket creation.  That mode is the path that shows
// the paper's §3.3 projection (near-zero rx copy misses under incast);
// HomaTransport does not reproduce it, so it is not a duplicate.
#ifndef HOSTSIM_NET_TCP_TRANSPORT_H
#define HOSTSIM_NET_TCP_TRANSPORT_H

#include <memory>
#include <vector>

#include "mem/pool.h"
#include "net/grant_scheduler.h"
#include "net/gro.h"
#include "net/skb.h"
#include "net/transport.h"

namespace hostsim {

class Stack;

class TcpTransport : public Transport {
 public:
  explicit TcpTransport(Stack& stack);
  ~TcpTransport() override;

  TransportKind kind() const override { return TransportKind::tcp; }

  std::unique_ptr<TransportSocket> make_socket(int flow,
                                               int app_core) override;
  void rx_frame(Core& core, int queue, Nic::PolledFrame polled) override;
  void rx_flush(Core& core, int queue) override;
  void collect_held_pages(std::vector<const Page*>& held) const override;
  void on_socket_destroyed(int /*flow*/) override {}

 private:
  /// Hands a post-GRO data skb to its socket, steering protocol
  /// processing to the RPS/RFS target core when configured.
  void deliver(Core& core, Skb&& skb);

  Stack* stack_;
  std::vector<Gro> gros_;                   // one per rx queue
  std::unique_ptr<GrantScheduler> grants_;  // legacy receiver-driven mode
  Context softirq_requeue_{"softirq-rps", /*kernel=*/true};
  /// Skbs in flight between the IRQ core and an RPS/RFS target core.
  /// Parked here (instead of captured in the task closure) so the leak
  /// sweep can account for their page references, and so the requeue
  /// task's capture stays small (a 4-byte slot instead of a whole Skb).
  SlotPool<Skb> requeue_park_;
};

}  // namespace hostsim

#endif  // HOSTSIM_NET_TCP_TRANSPORT_H
