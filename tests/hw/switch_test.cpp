#include "hw/switch.h"

#include <gtest/gtest.h>

#include <vector>

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

}  // namespace
}  // namespace hostsim
