// Per-host network stack: NAPI polling, GRO, socket table, and the
// host-level statistics the measurement harness reads.
//
// The Stack owns the receive path between the NIC and the sockets
// (paper fig. 1's "network subsystem"): its NAPI handler runs in softirq
// context on the rx queue's core, builds skbs (one per frame), feeds
// them through per-queue GRO, and delivers merged skbs to TCP.
#ifndef HOSTSIM_NET_STACK_H
#define HOSTSIM_NET_STACK_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cpu/core.h"
#include "hw/llc_model.h"
#include "hw/nic.h"
#include "hw/numa_topology.h"
#include "mem/iommu.h"
#include "mem/page_allocator.h"
#include "mem/pool.h"
#include "net/gro.h"
#include "net/skb.h"
#include "net/stack_config.h"
#include "net/transport.h"
#include "obs/event_trace.h"
#include "sim/stats.h"
#include "sim/timer.h"

namespace hostsim {

class TcpSocket;
class TcpTransport;
class HomaTransport;

namespace obs {
class Observer;
}  // namespace obs

/// Host-level measurement state, reset at the start of the measurement
/// window (after warmup).
struct HostStats {
  HitRate copy_reads;     ///< receiver-side data copy page accesses
  HitRate sender_copy;    ///< sender-side copy destination page residency
  Histogram napi_to_copy; ///< ns from NAPI processing to copy start (fig 3f)
  SkbSizeStats skb_sizes; ///< post-GRO skb sizes (fig 8c)
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t dup_acks = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rcv_queue_drops = 0;
  std::uint64_t rx_csum_drops = 0;  ///< corrupt frames dropped at checksum

  void clear() {
    copy_reads.clear();
    sender_copy.clear();
    napi_to_copy.clear();
    skb_sizes.clear();
    acks_sent = acks_received = dup_acks = retransmits = 0;
    rcv_queue_drops = 0;
    rx_csum_drops = 0;
  }
};

/// Whole-run connection-churn counters.  Deliberately NOT cleared at
/// begin_measurement(): like sockets_aborted(), churn accounting spans
/// the run (connection setup mostly happens during warmup).
struct ChurnStats {
  std::uint64_t syns_sent = 0;     ///< client SYNs, including retries
  std::uint64_t syn_retries = 0;   ///< client SYN retransmissions
  std::uint64_t syns_received = 0;
  std::uint64_t listen_overflows = 0;  ///< SYN dropped: accept backlog full
  std::uint64_t accepts = 0;           ///< connections handed to the app
  std::uint64_t connects_established = 0;
  std::uint64_t connect_failures = 0;  ///< SYN retry budget exhausted
  std::uint64_t fins_sent = 0;
  std::uint64_t fins_received = 0;
  std::uint64_t time_wait_entered = 0;
  std::uint64_t time_wait_reaped = 0;
  std::uint64_t time_wait_peak = 0;
  std::uint64_t socket_table_peak = 0;  ///< live sockets + TIME_WAIT entries
};

class Stack {
 public:
  /// Per-socket send buffer, both transports (tcp_wmem-style).
  static constexpr Bytes kSndBuf = 4 * kMiB;
  /// Receive-buffer autotuning cap (Linux tcp_rmem[2]).
  static constexpr Bytes kRcvBufMax = 6400 * kKiB;
  /// TSO/GSO/GRO aggregate limit: the largest skb either transport builds.
  static constexpr Bytes kMaxSkbBytes = 64 * kKiB;

  /// `host_id` tags the flight recorder's events; `trace_capacity` is its
  /// ring size (0 = off).
  Stack(EventLoop& loop, const StackConfig& config, int host_id,
        std::size_t trace_capacity, const NumaTopology& topo,
        std::vector<Core*> cores, std::vector<LlcModel*> llcs,
        PageAllocator& allocator, Iommu& iommu, Nic& nic);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Creates the local endpoint of `flow`, with its application pinned
  /// to `app_core`.  The concrete socket type is the active transport's.
  TransportSocket& create_socket(int flow, int app_core);
  TransportSocket& socket(int flow);

  /// Checked downcast for TCP-specific introspection (tests, legacy
  /// receiver-driven credit); dies if the active transport is not TCP.
  TcpSocket& tcp_socket(int flow);

  /// Looks a socket up without requiring it to exist (flows can be torn
  /// down mid-run by faults or reconnects); null when absent.
  TransportSocket* find_socket(int flow);
  const TransportSocket* find_socket(int flow) const;
  bool has_socket(int flow) const;

  /// The protocol implementation behind the seam.
  Transport& transport() { return *transport_; }
  const Transport& transport() const { return *transport_; }

  /// Removes a terminally failed socket from the table (reconnect
  /// replaces it with a fresh flow id).  The socket must be dead() — a
  /// live connection still owns wire state.  Not supported in
  /// receiver-driven mode (the grant scheduler keeps socket references).
  void destroy_socket(int flow);

  // --- Handshake / churn (open-loop workload engine) ----------------------
  //
  // The simplified three-frame lifecycle: the client sends a SYN; the
  // listener creates the server socket, sends a SYN-ACK, and posts an
  // accept task to the listener core (the final handshake ACK is not
  // modeled — acceptance happens on SYN, as with syncookie-less Linux
  // once the third ACK is implied).  The active closer sends a FIN and
  // its socket enters TIME_WAIT; the passive closer retires on FIN.
  // Flow ids are never reused, so TIME_WAIT here models socket-table
  // pressure and straggler-RST semantics rather than id-collision
  // protection.

  /// Invoked (in a listener-core task, after the accept syscall cost)
  /// for every connection the listener accepts.
  using AcceptFn = std::function<void(Core&, TransportSocket&)>;

  /// Registers this host's listener: incoming SYNs create server
  /// sockets pinned to `app_core`.  SYNs arriving while `backlog`
  /// connections await their accept task are dropped (counted in
  /// churn().listen_overflows); the client's SYN-retry timer recovers.
  void listen(int app_core, int backlog, AcceptFn on_accept);

  /// Invoked once per connect(): `established` is false when the SYN
  /// retry budget was exhausted.  Runs in softirq (success) or
  /// client-core task (failure) context; do app work via Thread::notify.
  using ConnectFn = std::function<void(bool established)>;

  /// Client-side handshake for a freshly created socket: posts the
  /// connect syscall to the socket's app core, sends the SYN, and
  /// retries on an exponential `retry_after` backoff up to
  /// `max_retries` times before reporting failure.
  void connect(int flow, Nanos retry_after, int max_retries, ConnectFn done);

  /// Client-side graceful close (active closer).  The connection must
  /// be quiescent (everything sent was acked, nothing left to read);
  /// sends a FIN and moves the socket into TIME_WAIT for `time_wait`
  /// nanoseconds.  Data arriving for a TIME_WAIT flow draws an RST.
  void close(Core& core, int flow, Nanos time_wait);

  const ChurnStats& churn() const { return churn_; }

  /// Called by a socket's abort() to account a connection teardown;
  /// `destroyed_rx` is receive-queue bytes destroyed before delivery.
  void note_socket_abort(Bytes destroyed_rx) {
    ++sockets_aborted_;
    bytes_destroyed_ += destroyed_rx;
  }
  std::uint64_t sockets_aborted() const { return sockets_aborted_; }
  Bytes bytes_destroyed() const { return bytes_destroyed_; }

  /// Clears host-level statistics (start of the measurement window).
  void begin_measurement();

  /// Flow ids of all sockets on this host, ascending.
  std::vector<int> flow_ids() const;

  /// Application-level bytes received by every socket this host has
  /// had, retired (closed, passively closed, destroyed) ones included,
  /// so the total never moves backwards.
  Bytes total_delivered_to_app() const;

  /// Appends every page the stack holds a reference to (socket queues,
  /// then parked cross-core requeues) to `held`; used by the leak sweep.
  void collect_held_pages(std::vector<const Page*>& held) const;

  /// Test hook: silently drops the next page-backed data skb *without*
  /// releasing its page references — a deliberate skb leak for
  /// exercising the invariant checker's leak sweep.
  void leak_next_skb() { leak_next_skb_ = true; }

  /// Attaches the run's observability hub (null = disabled).
  void set_observer(obs::Observer* observer) { obs_ = observer; }
  obs::Observer* observer() { return obs_; }

  HostStats& stats() { return stats_; }
  Tracer& tracer() { return tracer_; }
  const StackConfig& config() const { return config_; }
  EventLoop& loop() { return *loop_; }
  Nic& nic() { return *nic_; }
  PageAllocator& allocator() { return *allocator_; }
  Iommu& iommu() { return *iommu_; }
  const NumaTopology& topo() const { return topo_; }
  Core& core(int id) { return *cores_.at(static_cast<std::size_t>(id)); }
  LlcModel& llc(int node) { return *llcs_.at(static_cast<std::size_t>(node)); }
  int num_cores() const { return static_cast<int>(cores_.size()); }

 private:
  // Transports are the other half of this class: they consume the rx
  // frames napi_poll routes to them and reach back for the socket table,
  // steering, stats, and the RST answer path.
  friend class TcpTransport;
  friend class HomaTransport;

  using SocketTable = std::map<int, std::unique_ptr<TransportSocket>>;

  void napi_poll(Core& core, int queue);

  /// Removes a socket from the table, crediting its delivered bytes to
  /// the host total; returns it for any last callback.
  std::unique_ptr<TransportSocket> retire(SocketTable::iterator it);

  /// Builds the post-NAPI data skb for one polled frame, taking its
  /// fragments: charges the skb allocation (and, with GRO on, the
  /// per-segment GRO work) and stamps the frame's span at the GRO stage.
  Skb data_skb(Core& core, Nic::PolledFrame& polled);

  /// Answers a frame for an unknown or dead flow with a header-only RST
  /// so the peer observes ECONNRESET instead of retransmitting forever.
  void send_rst(int flow);

  // Handshake/churn internals (see the public section above).
  void handle_syn(Core& core, const Frame& frame);      // listener side
  void handle_syn_ack(Core& core, const Frame& frame);  // client side
  void handle_fin(Core& core, int flow);  // passive close, post-GRO-flush
  void send_syn(int flow);
  void send_syn_ack(int flow);
  void retry_connect(int flow);
  void reap_time_wait();
  void note_socket_table();  ///< updates the socket-table peak counter

  /// Core that should run protocol processing for `socket`'s frames
  /// arriving on `irq_core` (identity for arfs/rss, cross-core for the
  /// software steering modes).
  int steer_target(const TransportSocket& socket, const Core& irq_core) const;

  EventLoop* loop_;
  StackConfig config_;
  NumaTopology topo_;
  std::vector<Core*> cores_;
  std::vector<LlcModel*> llcs_;
  PageAllocator* allocator_;
  Iommu* iommu_;
  Nic* nic_;
  obs::Observer* obs_ = nullptr;

  /// The protocol implementation (TcpTransport unless configured
  /// otherwise).  Owns all protocol-specific machinery: GRO state, the
  /// legacy grant scheduler, cross-core requeue parking, Homa grants.
  std::unique_ptr<Transport> transport_;
  SocketTable sockets_;
  Bytes retired_delivered_ = 0;  ///< delivered_to_app of retired sockets
  HostStats stats_;
  Tracer tracer_;
  bool leak_next_skb_ = false;
  std::uint64_t sockets_aborted_ = 0;
  Bytes bytes_destroyed_ = 0;  ///< rx bytes destroyed by socket aborts

  // Handshake/churn state.  All empty/idle unless the workload engine
  // (or a test) uses listen()/connect()/close(); legacy runs never
  // touch it.
  struct Listener {
    int app_core = 0;
    int backlog = 0;
    int pending = 0;  ///< accepted connections awaiting their accept task
    AcceptFn on_accept;
  };
  struct PendingConnect {
    std::unique_ptr<Timer> retry;
    Nanos retry_after = 0;
    int tries = 0;  ///< SYNs sent so far
    int max_retries = 0;
    ConnectFn done;
  };
  std::optional<Listener> listener_;
  std::map<int, PendingConnect> connects_;
  /// TIME_WAIT residents, FIFO by expiry (uniform residence time keeps
  /// expiries monotone in insertion order).
  std::deque<std::pair<int, Nanos>> time_wait_;
  std::unordered_set<int> time_wait_flows_;
  std::unique_ptr<Timer> time_wait_reaper_;
  Context connect_ctx_{"tcp-connect", /*kernel=*/true};
  ChurnStats churn_;
};

}  // namespace hostsim

#endif  // HOSTSIM_NET_STACK_H
