#include "core/patterns.h"

#include <gtest/gtest.h>

namespace hostsim {
namespace {

TEST(PatternsTest, SingleFlowCreatesOnePair) {
  ExperimentConfig config;
  Testbed testbed(config);
  Workload workload = build_workload(testbed, config.traffic);
  EXPECT_EQ(workload.long_senders.size(), 1u);
  EXPECT_EQ(workload.long_receivers.size(), 1u);
  EXPECT_EQ(testbed.flows_created(), 1);
}

TEST(PatternsTest, OneToOnePinsFlowIToCoreI) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::one_to_one;
  config.traffic.flows = 8;
  Testbed testbed(config);
  Workload workload = build_workload(testbed, config.traffic);
  EXPECT_EQ(testbed.flows_created(), 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(testbed.receiver().stack().socket(i).app_core(), i);
    EXPECT_EQ(testbed.sender().stack().socket(i).app_core(), i);
  }
}

TEST(PatternsTest, IncastConvergesOnOneReceiverCore) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::incast;
  config.traffic.flows = 12;
  Testbed testbed(config);
  Workload workload = build_workload(testbed, config.traffic);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(testbed.receiver().stack().socket(i).app_core(), 0);
    EXPECT_EQ(testbed.sender().stack().socket(i).app_core(), i);
  }
}

TEST(PatternsTest, OutcastFansOutFromOneSenderCore) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::outcast;
  config.traffic.flows = 12;
  Testbed testbed(config);
  Workload workload = build_workload(testbed, config.traffic);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(testbed.sender().stack().socket(i).app_core(), 0);
    EXPECT_EQ(testbed.receiver().stack().socket(i).app_core(), i);
  }
}

TEST(PatternsTest, AllToAllCreatesNSquaredFlows) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::all_to_all;
  config.traffic.flows = 5;
  Testbed testbed(config);
  Workload workload = build_workload(testbed, config.traffic);
  EXPECT_EQ(testbed.flows_created(), 25);
  EXPECT_EQ(workload.long_senders.size(), 25u);
}

TEST(PatternsTest, RemoteNumaPinsReceiverOffNicNode) {
  ExperimentConfig config;
  config.traffic.receiver_app_remote_numa = true;
  Testbed testbed(config);
  Workload workload = build_workload(testbed, config.traffic);
  const int core = testbed.receiver().stack().socket(0).app_core();
  EXPECT_FALSE(config.topo.is_nic_local(core));
}

TEST(PatternsTest, ArfsSteersToAppCores) {
  ExperimentConfig config;  // arfs on by default
  config.traffic.pattern = Pattern::incast;
  config.traffic.flows = 4;
  Testbed testbed(config);
  Workload workload = build_workload(testbed, config.traffic);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(testbed.receiver().nic().queue_for_flow(i), 0);
    EXPECT_EQ(testbed.sender().nic().queue_for_flow(i), i);
  }
}

TEST(PatternsTest, NoArfsSteersToNicRemoteCores) {
  ExperimentConfig config;
  config.stack.arfs = false;
  config.traffic.pattern = Pattern::one_to_one;
  config.traffic.flows = 3;
  Testbed testbed(config);
  Workload workload = build_workload(testbed, config.traffic);
  for (int i = 0; i < 3; ++i) {
    const int queue = testbed.receiver().nic().queue_for_flow(i);
    EXPECT_FALSE(config.topo.is_nic_local(queue));
  }
}

TEST(PatternsTest, RpcIncastBuildsServerPerConnection) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::rpc_incast;
  config.traffic.flows = 16;
  Testbed testbed(config);
  Workload workload = build_workload(testbed, config.traffic);
  EXPECT_EQ(workload.rpc_servers.size(), 16u);
  EXPECT_EQ(workload.rpc_clients.size(), 16u);
  EXPECT_TRUE(workload.long_senders.empty());
}

TEST(PatternsTest, MixedCombinesLongFlowWithRpcsOnOneCore) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::mixed;
  config.traffic.flows = 4;
  Testbed testbed(config);
  Workload workload = build_workload(testbed, config.traffic);
  EXPECT_EQ(workload.long_senders.size(), 1u);
  EXPECT_EQ(workload.rpc_clients.size(), 4u);
  for (int flow = 0; flow < 5; ++flow) {
    EXPECT_EQ(testbed.receiver().stack().socket(flow).app_core(), 0);
    EXPECT_EQ(testbed.sender().stack().socket(flow).app_core(), 0);
  }
}

// Hosts 0..H-2 send: incast fills every sender core, one-to-one and
// all-to-all are also held to the receiver's cores, outcast only to
// them; mixed and open-loop share cores and have no bound here.
TEST(PatternsTest, FlowsFitTheirCores) {
  const auto fits = [](Pattern pattern, int flows, int hosts) {
    TrafficConfig traffic;
    traffic.pattern = pattern;
    traffic.flows = flows;
    return !check_flows_fit(traffic, hosts, 24).has_value();
  };
  EXPECT_TRUE(fits(Pattern::incast, 192, 9));
  EXPECT_FALSE(fits(Pattern::incast, 193, 9));
  EXPECT_TRUE(fits(Pattern::rpc_incast, 48, 3));
  EXPECT_FALSE(fits(Pattern::rpc_incast, 49, 3));
  for (Pattern pattern : {Pattern::one_to_one, Pattern::all_to_all,
                          Pattern::outcast}) {
    EXPECT_TRUE(fits(pattern, 24, 9));
    EXPECT_FALSE(fits(pattern, 25, 9));
    EXPECT_FALSE(fits(pattern, 0, 9));
  }
  EXPECT_TRUE(fits(Pattern::single_flow, 1, 2));
  EXPECT_FALSE(fits(Pattern::single_flow, 2, 2));
  EXPECT_TRUE(fits(Pattern::mixed, 100, 2));
  EXPECT_TRUE(fits(Pattern::open_loop, 100, 3));
  TrafficConfig incast;
  incast.pattern = Pattern::incast;
  incast.flows = 30;
  EXPECT_EQ(check_flows_fit(incast, 2, 24).value_or(""),
            "--flows=30: incast takes 1 to 24 flows on 2 hosts of 24 cores "
            "(one per sender core)");
}

}  // namespace
}  // namespace hostsim
