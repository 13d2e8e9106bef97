// Deterministic fault-injection subsystem.
//
// A FaultPlan describes every fault a run should experience — bursty
// (Gilbert–Elliott) wire loss, link flaps, frame corruption, NIC rx-ring
// stalls, and page-pool pressure windows.  The FaultInjector executes the
// plan against the event loop: window-shaped faults (flaps, stalls,
// pressure) are scheduled as events at construction, while the random
// draws (GE loss, corruption, pressure denials) come from one stream per
// link, derived from a dedicated fork of the run's root seed.  Every
// fault is therefore a pure function of (configuration, seed) and tier-1
// runs stay byte-for-byte reproducible.
//
// Layering: this is a sim-level component; hw/mem components consult it
// through narrow hooks (Link per frame, Nic per receive, PagePool per
// allocation) and never the other way around.
#ifndef HOSTSIM_SIM_FAULT_INJECTOR_H
#define HOSTSIM_SIM_FAULT_INJECTOR_H

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/rng.h"
#include "sim/units.h"

namespace hostsim {

/// Two-state Markov (Gilbert–Elliott) frame-loss model.  The chain
/// advances once per frame; the stationary loss rate is
/// `pi_bad * loss_bad + (1 - pi_bad) * loss_good` with
/// `pi_bad = p_enter_bad / (p_enter_bad + p_exit_bad)`, and the mean
/// burst length is `1 / p_exit_bad` frames.
struct GilbertElliottConfig {
  bool enabled = false;
  double p_enter_bad = 0.0;  ///< per-frame good -> bad transition
  double p_exit_bad = 1.0;   ///< per-frame bad -> good transition
  double loss_good = 0.0;    ///< drop probability in the good state
  double loss_bad = 1.0;     ///< drop probability in the bad state

  /// Parameters matching a target average loss rate with mean bursts of
  /// `burst_frames` frames at `loss_bad` drop probability in bad state.
  static GilbertElliottConfig for_average_loss(double avg_loss,
                                               double burst_frames = 10.0,
                                               double loss_bad = 0.5);
};

/// One link outage: the link drops everything in [at, at + duration).
/// `link < 0` downs every link; otherwise only the link (or switch port)
/// with that id — in a cluster, the uplink of host `link`.
struct LinkFlap {
  Nanos at = 0;
  Nanos duration = 0;
  int link = -1;
};

/// One rx-ring stall burst: the NIC cannot consume descriptors in
/// [at, at + duration) (PCIe backpressure / descriptor-fetch starvation);
/// arriving frames are dropped.  `queue < 0` stalls every queue and
/// `host < 0` matches every host.
struct RingStall {
  Nanos at = 0;
  Nanos duration = 0;
  int queue = -1;
  int host = -1;
};

/// One page-pool pressure window: in [at, at + duration) rx page
/// allocations fail with probability `deny_prob` (memory pressure
/// shrinking the pool), so rings drain and refill organically.
struct PoolPressure {
  Nanos at = 0;
  Nanos duration = 0;
  double deny_prob = 1.0;
};

/// One host crash: at `at` the host's NIC goes dark and every socket on
/// it dies (their in-flight pages are accounted as explicitly
/// destroyed); at `at + down_for` the host restarts — applications must
/// reconnect through fresh sockets to resume.
struct HostCrash {
  Nanos at = 0;
  Nanos down_for = 0;
  int host = 0;
};

/// One switch-port blackhole: egress toward `port` is silently dropped
/// in [at, at + duration) — no RST, no link-down signal, nothing the
/// sender can observe except missing ACKs.  Retries must mask it.
struct PortBlackhole {
  Nanos at = 0;
  Nanos duration = 0;
  int port = 0;
};

/// The complete fault schedule for one run.
struct FaultPlan {
  GilbertElliottConfig gilbert_elliott;
  double corrupt_rate = 0.0;  ///< delivered-but-checksum-failed probability
  std::vector<LinkFlap> link_flaps;
  std::vector<RingStall> ring_stalls;
  std::vector<PoolPressure> pool_pressure;
  std::vector<HostCrash> host_crashes;
  std::vector<PortBlackhole> port_blackholes;

  /// True when any fault is configured (an empty plan costs nothing).
  bool any() const {
    return gilbert_elliott.enabled || corrupt_rate > 0.0 ||
           !link_flaps.empty() || !ring_stalls.empty() ||
           !pool_pressure.empty() || !host_crashes.empty() ||
           !port_blackholes.empty();
  }
};

/// Everything the injector (and the watchdog, which shares the struct in
/// Metrics) counted during a run.
struct FaultCounters {
  std::uint64_t random_drops = 0;     ///< GE good-state (i.i.d.-like) drops
  std::uint64_t bursty_drops = 0;     ///< GE bad-state drops
  std::uint64_t flap_drops = 0;       ///< frames dropped while link down
  std::uint64_t corrupt_frames = 0;   ///< frames delivered corrupted
  std::uint64_t flaps = 0;            ///< link-down events entered
  std::uint64_t ring_stall_drops = 0; ///< frames dropped by stalled rings
  std::uint64_t pool_denials = 0;     ///< rx page allocations denied
  std::uint64_t watchdog_trips = 0;   ///< stall-watchdog activations
  std::uint64_t host_crashes = 0;     ///< host-crash windows entered
  std::uint64_t crash_drops = 0;      ///< frames dropped at a dark NIC
  std::uint64_t blackhole_drops = 0;  ///< frames swallowed by a blackholed port

  std::uint64_t wire_faults() const {
    return random_drops + bursty_drops + flap_drops + corrupt_frames;
  }
};

class FaultInjector {
 public:
  /// What the wire should do with one frame.
  enum class WireFault : std::uint8_t {
    none,         ///< deliver untouched
    drop_random,  ///< lost in the GE good state
    drop_bursty,  ///< lost in the GE bad state
    drop_flap,    ///< link is down
    corrupt,      ///< deliver, but flag the frame checksum-failed
  };

  /// Schedules the plan's window faults on `loop` and gives each link
  /// its own random-fault stream: link 0 draws from `rng`, a dedicated
  /// (seed-deterministic) stream, and link i > 0 from the i-th fork of a
  /// copy of it, so every injector built from the same `rng` derives the
  /// same streams.  `host_uplinks[h]` is host h's link ({0, 0}
  /// back-to-back, the identity in a switched cluster), whose stream
  /// draws h's pool-pressure denials; the links are 0..max of it.  A
  /// cluster builds one per shard over the plan filtered to the shard's
  /// hosts/links, which replicates global windows (LinkFlap::link < 0,
  /// host-less ring stalls) into every shard; `count_global_windows` is
  /// true on exactly one shard so the merged `flaps` counter matches
  /// serial.
  FaultInjector(EventLoop& loop, FaultPlan plan, Rng rng,
                std::vector<int> host_uplinks, bool count_global_windows);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultPlan& plan() const { return plan_; }

  // --- Link hooks ---------------------------------------------------------

  /// Advances `link`'s Gilbert–Elliott chain for `direction` (0 or 1)
  /// and classifies one frame, drawing only from `link`'s stream.
  WireFault on_frame(int link, int direction);

  /// True when neither a global flap nor a flap targeting `link` is open.
  bool link_up(int link) const;

  // --- NIC hook -----------------------------------------------------------

  /// True while `queue` on `host` is inside a ring-stall window.
  bool ring_stalled(int host, int queue) const;

  /// Counts one frame dropped because of a ring stall.
  void note_ring_stall_drop() { ++counters_.ring_stall_drops; }

  // --- Crash / blackhole hooks --------------------------------------------

  /// False while `host` is inside a crash window (its NIC is dark).
  bool host_up(int host) const;

  /// True while switch egress toward `port` is being silently dropped.
  bool port_blackholed(int port) const;

  /// Counts one frame dropped at a crashed host's dark NIC.
  void note_crash_drop() { ++counters_.crash_drops; }

  /// Counts one frame silently swallowed by a blackholed switch port.
  void note_blackhole_drop() { ++counters_.blackhole_drops; }

  /// Invoked at each crash-window edge: `up == false` when the host goes
  /// dark (the owner should kill its sockets) and `up == true` when it
  /// restarts.  Registered by the topology layer before the first window
  /// fires; windows with no handler only darken the NIC.
  using CrashHandler = std::function<void(int host, bool up)>;
  void set_crash_handler(CrashHandler handler) {
    crash_handler_ = std::move(handler);
  }

  /// Counts one frame lost to a down link somewhere other than the
  /// link's own transmit path (the switch drops on egress when the
  /// destination port's downlink is flapped).
  void note_flap_drop() { ++counters_.flap_drops; }

  // --- Page-pool hook -----------------------------------------------------

  /// False when a pressure window denies this rx page allocation on
  /// `host`; the draw comes from the stream of `host`'s uplink.
  bool pool_alloc_allowed(int host);

  // --- Accounting ---------------------------------------------------------

  const FaultCounters& counters() const { return counters_; }
  FaultCounters& counters() { return counters_; }

 private:
  /// One link's random-fault state: its stream and, per direction,
  /// whether its GE chain is in the bad state.
  struct LinkStream {
    Rng rng;
    std::array<bool, 2> ge_bad{};
  };

  EventLoop* loop_;
  FaultPlan plan_;
  std::vector<int> host_uplinks_;
  std::vector<LinkStream> links_;  // by link id
  bool count_global_windows_ = true;
  FaultCounters counters_;

  int link_down_depth_ = 0;     // >0 while a global (link==-1) flap is open
  std::vector<int> down_links_; // links with an open targeted flap (multiset)
  int stall_all_depth_ = 0;     // >0 while a host==-1,queue==-1 stall is open
  std::vector<std::pair<int, int>> stalled_;  // open (host, queue) stalls
  int pressure_depth_ = 0;      // >0 while any pressure window is open
  double pressure_deny_ = 0.0;  // deny probability of the innermost window
  std::vector<int> down_hosts_;        // hosts in an open crash window (multiset)
  std::vector<int> blackholed_ports_;  // ports in an open blackhole window
  CrashHandler crash_handler_;
};

}  // namespace hostsim

#endif  // HOSTSIM_SIM_FAULT_INJECTOR_H
