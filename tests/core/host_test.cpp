// Host and testbed assembly tests.
#include "core/host.h"

#include <gtest/gtest.h>

#include "core/testbed.h"

namespace hostsim {
namespace {

TEST(HostTest, AssemblesPaperTopology) {
  ExperimentConfig config;
  Testbed testbed(config);
  Host& host = testbed.receiver();
  EXPECT_EQ(host.num_cores(), 24);
  EXPECT_EQ(host.core(7).numa_node(), 1);
  EXPECT_EQ(host.topo().nic_node, 0);
  EXPECT_EQ(host.llc(0).capacity_bytes(), 256LL * 18 * 4096);
}

TEST(HostTest, StackReadsItsStackConfig) {
  ExperimentConfig config;
  config.stack.jumbo = false;
  config.stack.tso = false;
  config.stack.arfs = false;
  config.stack.fallback_steering = SteeringMode::rfs;
  Testbed testbed(config);
  const StackConfig& stack = testbed.receiver().stack().config();
  EXPECT_EQ(stack.mtu_payload(), 1500);
  EXPECT_EQ(stack.segmentation(), SegmentationMode::gso_sw);
  EXPECT_EQ(stack.steering(), SteeringMode::rfs);
}

TEST(HostTest, NicConfigDerivesFromStackConfig) {
  ExperimentConfig config;
  config.stack.nic_ring_size = 256;
  config.stack.dca = false;
  Testbed testbed(config);
  EXPECT_EQ(testbed.receiver().nic().config().ring_size, 256);
  EXPECT_FALSE(testbed.receiver().nic().config().dca);
  EXPECT_EQ(testbed.receiver().nic().descriptor_bytes(),
            9000 + kFrameHeaderBytes);
}

TEST(TestbedTest, FlowIdsAreSequential) {
  ExperimentConfig config;
  Testbed testbed(config);
  testbed.make_flow({0, 0}, {1, 0});
  testbed.make_flow({0, 1}, {1, 1});
  EXPECT_EQ(testbed.flows_created(), 2);
  EXPECT_EQ(testbed.sender().stack().socket(1).flow(), 1);
}

TEST(TestbedTest, HostsAreIndependent) {
  ExperimentConfig config;
  Testbed testbed(config);
  auto endpoints = testbed.make_flow({0, 0}, {1, 3});
  EXPECT_NE(&testbed.sender(), &testbed.receiver());
  EXPECT_EQ(endpoints.at_sender->app_core(), 0);
  EXPECT_EQ(endpoints.at_receiver->app_core(), 3);
  // Page allocators are per host: allocating on one never shows on the
  // other.
  EXPECT_EQ(testbed.sender().allocator().live_pages(),
            testbed.receiver().allocator().live_pages());
}

TEST(TestbedTest, WirePropagationAndRateFromConfig) {
  ExperimentConfig config;
  config.link_gbps = 25.0;
  Testbed testbed(config);
  // 1250B at 25Gbps = 400ns serialization; checked via egress delay.
  Frame frame;
  frame.flow = 99;
  frame.payload = 1250 - kFrameHeaderBytes;
  testbed.link(0).transmit(Link::Side::a, frame);
  EXPECT_EQ(testbed.link(0).egress_delay(Link::Side::a), 400);
}

}  // namespace
}  // namespace hostsim
