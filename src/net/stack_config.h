// Host stack configuration: the paper's §2.1 optimization knobs and the
// stack's own tunables.  The Stack, its transports and its sockets read
// this struct directly; core::ExperimentConfig embeds it as `stack`.
#ifndef HOSTSIM_NET_STACK_CONFIG_H
#define HOSTSIM_NET_STACK_CONFIG_H

#include <string>

#include "hw/nic.h"
#include "net/cc/congestion_control.h"
#include "net/gso.h"
#include "net/transport.h"
#include "sim/units.h"

namespace hostsim {

struct StackConfig {
  bool tso = true;    ///< hardware segmentation offload
  bool gso = true;    ///< software segmentation (used when TSO is off)
  bool gro = true;    ///< software receive coalescing
  bool jumbo = true;  ///< 9000B MTU instead of 1500B
  bool arfs = true;   ///< hardware flow steering to the application core
  bool dca = true;    ///< DDIO: DMA into the NIC-local LLC
  bool iommu = false;
  bool lro = false;   ///< hardware receive coalescing instead of GRO
  CcAlgo cc = CcAlgo::cubic;

  /// Receiver-side steering (paper Table 2).  When `arfs` is true the
  /// hardware steers each flow's IRQs to its application core and this
  /// field is ignored; when false, this selects the fallback: `rss`
  /// (the paper's worst-case explicit NIC-remote mapping), or the
  /// software paths `rps` (bounce to a hashed core) / `rfs` (bounce to
  /// the application's core) that requeue protocol processing from the
  /// IRQ core.
  SteeringMode fallback_steering = SteeringMode::rss;

  /// §4 zero-copy extensions: MSG_ZEROCOPY-style transmission (pins the
  /// user buffer; no user->kernel copy, per-chunk completion events) and
  /// TCP-mmap-style reception (no kernel->user copy; per-page remap).
  bool tx_zerocopy = false;
  bool rx_zerocopy = false;

  /// Acknowledge every second in-order delivery instead of every one
  /// (classic delayed ACKs; immediate ACK on out-of-order data).
  bool delayed_ack = false;

  /// §3.3/§4 receiver-driven transport projection: the receiver grants
  /// credit to at most GrantScheduler::kMaxActive flows per core at a
  /// time (pHost/Homa-style), instead of TCP's sender-driven windows.
  bool receiver_driven = false;

  int nic_ring_size = 1024;  ///< rx descriptors per queue
  Bytes tcp_rx_buf = 0;      ///< fixed receive buffer; 0 = autotune

  /// Consecutive RTO expirations before a connection is declared dead
  /// with ETIMEDOUT (Linux tcp_retries2 analogue); 0 probes forever.
  int max_consecutive_rtos = 8;

  /// Protocol behind the net::Transport seam: classic TCP (default) or
  /// the Homa-style receiver-driven message transport.
  TransportConfig transport;

  /// Payload per wire frame, which is also the TCP MSS.
  Bytes mtu_payload() const { return jumbo ? 9000 : 1500; }

  SegmentationMode segmentation() const {
    if (tso) return SegmentationMode::tso_hw;
    if (gso) return SegmentationMode::gso_sw;
    return SegmentationMode::none;
  }

  /// Effective steering: aRFS (hardware, IRQ on the app core) when on,
  /// else the fallback mode.
  SteeringMode steering() const {
    return arfs ? SteeringMode::arfs : fallback_steering;
  }

  /// The paper's "no optimization" baseline: MTU-sized skbs end to end,
  /// hash steering to a NIC-remote core, GSO explicitly disabled (the
  /// paper modified the kernel for this; §3.1 footnote 5).
  static StackConfig no_opt() {
    StackConfig config;
    config.tso = config.gso = config.gro = config.jumbo = config.arfs = false;
    return config;
  }

  /// All commodity-NIC optimizations on (the paper's default).
  static StackConfig all_opt() { return StackConfig{}; }

  /// The paper's incremental fig. 3 ladder: none -> +TSO/GRO -> +jumbo
  /// -> +aRFS.  `level` in [0, 3].
  static StackConfig opt_level(int level);

  /// Short label like "TSO/GRO+Jumbo+aRFS" for reports.
  std::string label() const;
};

}  // namespace hostsim

#endif  // HOSTSIM_NET_STACK_CONFIG_H
