#include "hw/switch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/rng.h"

namespace hostsim {
namespace {

Frame data_frame(int flow, Bytes payload, int dst_host) {
  Frame frame;
  frame.flow = flow;
  frame.payload = payload;
  frame.dst_host = static_cast<std::int16_t>(dst_host);
  return frame;
}

/// A 2-port switch (port i forwards to host i) with per-port arrival
/// logs.
struct Fixture {
  explicit Fixture(const Switch::Config& config)
      : sw(loop, config), arrivals(static_cast<std::size_t>(config.num_ports)) {
    for (int p = 0; p < config.num_ports; ++p) {
      sw.attach_port(p, [this, p](Frame frame) {
        arrivals[static_cast<std::size_t>(p)].push_back(
            {loop.now(), frame});
      });
    }
  }

  /// Hands `frame` to the switch as the cluster's delivery band does:
  /// the send instant plus a per-call sequence number form its key.
  void send(int port, Frame frame) {
    sw.ingress_ranked(port, frame, loop.now(), next_sub++);
  }

  struct Arrival {
    Nanos at;
    Frame frame;
  };

  EventLoop loop;
  Switch sw;
  std::vector<std::vector<Arrival>> arrivals;
  std::uint64_t next_sub = 0;
};

TEST(SwitchTest, PassThroughDeliversAtIngressInstant) {
  Fixture f(Switch::Config{});  // buffer_bytes = 0
  f.loop.schedule_at(500, [&] {
    f.send(0, data_frame(7, 10000 - kFrameHeaderBytes, 1));
  });
  f.loop.run_to_completion();
  ASSERT_EQ(f.arrivals[1].size(), 1u);
  EXPECT_EQ(f.arrivals[1][0].at, 500);  // no added latency
  EXPECT_EQ(f.arrivals[1][0].frame.flow, 7);
  EXPECT_EQ(f.sw.forwarded(), 1u);
  EXPECT_EQ(f.sw.queued_bytes(), 0);
}

TEST(SwitchTest, RoutesByDestinationHost) {
  Switch::Config config;
  config.num_ports = 4;
  Fixture f(config);
  f.loop.schedule_at(1, [&] {
    f.send(0, data_frame(0, 1000, 2));
    f.send(1, data_frame(1, 1000, 3));
  });
  f.loop.run_to_completion();
  EXPECT_TRUE(f.arrivals[0].empty());
  EXPECT_TRUE(f.arrivals[1].empty());
  ASSERT_EQ(f.arrivals[2].size(), 1u);
  EXPECT_EQ(f.arrivals[2][0].frame.flow, 0);
  ASSERT_EQ(f.arrivals[3].size(), 1u);
  EXPECT_EQ(f.arrivals[3][0].frame.flow, 1);
}

TEST(SwitchTest, OutputQueueSerializesThenPropagates) {
  Switch::Config config;
  config.port_gbps = 100.0;
  config.propagation = 1000;
  config.buffer_bytes = 1 * kMiB;
  Fixture f(config);
  f.loop.schedule_at(1, [&] {
    f.send(0, data_frame(0, 10000 - kFrameHeaderBytes, 1));
  });
  f.loop.run_to_completion();
  ASSERT_EQ(f.arrivals[1].size(), 1u);
  // 10000B at 100Gbps = 800ns serialization + 1000ns propagation.
  EXPECT_EQ(f.arrivals[1][0].at, 1 + 800 + 1000);
  EXPECT_EQ(f.sw.queued_bytes(), 0);  // FIFO drained at tx_end
  EXPECT_EQ(f.sw.peak_queue_bytes(), 10000);
}

TEST(SwitchTest, BackToBackFramesShareTheEgressSerializer) {
  Switch::Config config;
  config.buffer_bytes = 1 * kMiB;
  Fixture f(config);
  const Bytes payload = 10000 - kFrameHeaderBytes;
  f.loop.schedule_at(1, [&] {
    f.send(0, data_frame(0, payload, 1));
    f.send(0, data_frame(0, payload, 1));
  });
  f.loop.run_to_completion();
  ASSERT_EQ(f.arrivals[1].size(), 2u);
  EXPECT_EQ(f.arrivals[1][1].at - f.arrivals[1][0].at, 800);
  EXPECT_EQ(f.sw.peak_queue_bytes(), 20000);  // both frames co-resident
}

TEST(SwitchTest, DropTailAtTheBufferBound) {
  Switch::Config config;
  config.buffer_bytes = 10000;  // exactly one full frame
  Fixture f(config);
  const Bytes payload = 10000 - kFrameHeaderBytes;
  f.loop.schedule_at(1, [&] {
    f.send(0, data_frame(0, payload, 1));
    f.send(0, data_frame(1, payload, 1));  // would exceed the bound
  });
  f.loop.run_to_completion();
  ASSERT_EQ(f.arrivals[1].size(), 1u);
  EXPECT_EQ(f.arrivals[1][0].frame.flow, 0);
  EXPECT_EQ(f.sw.dropped(), 1u);
  EXPECT_EQ(f.sw.port_stats(1).drops, 1u);
  EXPECT_EQ(f.sw.forwarded(), 1u);
}

TEST(SwitchTest, MarksCeAtOrAboveTheEcnThreshold) {
  Switch::Config config;
  config.buffer_bytes = 1 * kMiB;
  config.ecn_threshold_bytes = 10000;
  Fixture f(config);
  const Bytes payload = 10000 - kFrameHeaderBytes;
  f.loop.schedule_at(1, [&] {
    f.send(0, data_frame(0, payload, 1));  // queue 0 -> below threshold
    f.send(0, data_frame(1, payload, 1));  // queue 10000 -> marked
  });
  f.loop.run_to_completion();
  ASSERT_EQ(f.arrivals[1].size(), 2u);
  EXPECT_FALSE(f.arrivals[1][0].frame.ecn);
  EXPECT_TRUE(f.arrivals[1][1].frame.ecn);
  EXPECT_EQ(f.sw.ecn_marked(), 1u);
  EXPECT_EQ(f.sw.port_stats(1).ecn_marks, 1u);
}

TEST(SwitchTest, RecordsFabricTraceEvents) {
  Switch::Config config;
  config.buffer_bytes = 10000;
  config.ecn_threshold_bytes = 5000;
  Fixture f(config);
  f.sw.enable_trace(16);
  const Bytes payload = 10000 - kFrameHeaderBytes;
  f.loop.schedule_at(1, [&] {
    f.send(0, data_frame(0, payload, 1));  // enqueue (below ECN)
    f.send(0, data_frame(1, payload, 1));  // drop-tail
  });
  f.loop.run_to_completion();
  const std::vector<TraceRecord> records = f.sw.trace_snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, TraceKind::fabric_enqueue);
  EXPECT_EQ(records[0].host, kFabricTraceHost);
  EXPECT_EQ(records[0].a, 1);  // egress port
  EXPECT_EQ(records[1].kind, TraceKind::fabric_drop);
  EXPECT_EQ(records[1].flow, 1);
}

TEST(SwitchTest, PortFlapDropsOnlyThatPortsTraffic) {
  EventLoop loop;
  FaultPlan plan;
  plan.link_flaps.push_back({1000, 1000, /*link=*/1});
  FaultInjector faults(loop, plan, loop.rng().fork(),
                       /*host_uplinks=*/{0, 1, 2},
                       /*count_global_windows=*/true);
  Switch::Config config;
  config.num_ports = 3;
  Switch sw(loop, config);
  std::vector<int> delivered;
  for (int p = 0; p < 3; ++p) {
    sw.attach_port(p, [&delivered, p](Frame) { delivered.push_back(p); });
  }
  for (int p = 0; p < 3; ++p) sw.shard_port(p, loop, &faults);
  std::uint64_t sub = 0;
  auto send = [&](Frame frame) {
    sw.ingress_ranked(0, frame, loop.now(), sub++);
  };
  loop.schedule_at(1500, [&] {
    send(data_frame(0, 1000, 1));  // port 1 is down
    send(data_frame(1, 1000, 2));  // port 2 is up
  });
  loop.schedule_at(2500, [&] {
    send(data_frame(2, 1000, 1));  // window closed
  });
  loop.run_to_completion();
  EXPECT_EQ(sw.flap_drops(), 1u);
  EXPECT_EQ(sw.port_stats(1).flap_drops, 1u);
  EXPECT_EQ(delivered, (std::vector<int>{2, 1}));
}

// hop_snapshot() merges the per-port hop rings.  The reference keeps
// each port's newest `capacity` hops on the test side (a frame that
// reaches its host was queued; one lost at the buffer bound was not),
// concatenates the ports and stable-sorts by (enqueue, port).  Seeded
// bursts wrap rings of 3-17 hops, overflow the buffer and enqueue on
// several ports at the same instant.
TEST(SwitchHopProperty, SnapshotMatchesStableSort) {
  int wrapped = 0;
  int shared_instants = 0;
  std::uint64_t drops = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    Switch::Config config;
    config.num_ports = 2 + static_cast<int>(rng.next_below(5));
    config.port_gbps = 10.0;
    config.propagation = static_cast<Nanos>(rng.next_below(2000));
    config.buffer_bytes = 24 * kKiB;
    Fixture f(config);
    const std::size_t capacity = 3 + rng.next_below(15);
    f.sw.enable_hop_trace(capacity);

    // Frames sent toward each egress port, in ingress order; each frame
    // carries its own flow id.
    std::vector<std::vector<Switch::HopRecord>> sent(
        static_cast<std::size_t>(config.num_ports));
    std::map<Nanos, std::vector<int>> ports_at;  // instant -> egress ports
    int next_flow = 0;
    const int bursts = 10 + static_cast<int>(rng.next_below(40));
    for (int b = 0; b < bursts; ++b) {
      const Nanos at = 200 * static_cast<Nanos>(rng.next_below(30));
      const int frames = 1 + static_cast<int>(rng.next_below(4));
      for (int i = 0; i < frames; ++i) {
        const int port = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(config.num_ports)));
        const Frame frame = data_frame(
            next_flow++, 64 + static_cast<Bytes>(rng.next_below(9000)), port);
        ports_at[at].push_back(port);
        f.loop.schedule_at(at, [&f, &sent, frame, port] {
          sent[static_cast<std::size_t>(port)].push_back(
              {port, frame.flow, f.loop.now(), -1, frame.wire_bytes()});
          f.send(0, frame);
        });
      }
    }
    f.loop.run_to_completion();

    std::map<int, Nanos> delivered;  // flow -> arrival at its host
    for (const auto& arrivals : f.arrivals) {
      for (const Fixture::Arrival& a : arrivals) {
        delivered[a.frame.flow] = a.at;
      }
    }
    std::vector<Switch::HopRecord> want;
    for (const auto& port_sent : sent) {
      std::vector<Switch::HopRecord> kept;
      for (Switch::HopRecord hop : port_sent) {
        const auto it = delivered.find(hop.flow);
        if (it == delivered.end()) continue;
        hop.deliver = it->second;
        kept.push_back(hop);
      }
      if (kept.size() > capacity) {
        ++wrapped;
        kept.erase(kept.begin(),
                   kept.end() - static_cast<std::ptrdiff_t>(capacity));
      }
      want.insert(want.end(), kept.begin(), kept.end());
    }
    std::stable_sort(want.begin(), want.end(),
                     [](const Switch::HopRecord& a,
                        const Switch::HopRecord& b) {
                       if (a.enqueue != b.enqueue) return a.enqueue < b.enqueue;
                       return a.port < b.port;
                     });
    for (const auto& [at, ports] : ports_at) {
      (void)at;
      if (std::adjacent_find(ports.begin(), ports.end(),
                             std::not_equal_to<>()) != ports.end()) {
        ++shared_instants;
      }
    }
    drops += f.sw.dropped();

    const std::vector<Switch::HopRecord> got = f.sw.hop_snapshot();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", hop " +
                   std::to_string(i));
      EXPECT_EQ(got[i].port, want[i].port);
      EXPECT_EQ(got[i].flow, want[i].flow);
      EXPECT_EQ(got[i].enqueue, want[i].enqueue);
      EXPECT_EQ(got[i].deliver, want[i].deliver);
      EXPECT_EQ(got[i].bytes, want[i].bytes);
    }
  }
  EXPECT_GT(wrapped, 0) << "no hop ring wrapped";
  EXPECT_GT(shared_instants, 0) << "no two ports enqueued at one instant";
  EXPECT_GT(drops, 0u) << "no frame was lost at the buffer bound";
}

}  // namespace
}  // namespace hostsim
