// Receiver-driven credit scheduling tests.
#include "net/grant_scheduler.h"
#include "net/tcp_socket.h"

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/patterns.h"

namespace hostsim {
namespace {

ExperimentConfig rdt_config(int flows) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::incast;
  config.traffic.flows = flows;
  config.stack.receiver_driven = true;
  config.warmup = 8 * kMillisecond;
  config.duration = 10 * kMillisecond;
  return config;
}

TEST(GrantSchedulerTest, SingleFlowStillStreams) {
  const Metrics metrics = run_experiment(rdt_config(1));
  EXPECT_GT(metrics.total_gbps, 20.0);
  EXPECT_EQ(metrics.retransmits, 0u);
}

TEST(GrantSchedulerTest, AllIncastFlowsMakeProgress) {
  ExperimentConfig config = rdt_config(8);
  Testbed testbed(config);
  Workload workload = build_workload(testbed, config.traffic);
  workload.start();
  testbed.run_until(30 * kMillisecond);
  for (int flow = 0; flow < 8; ++flow) {
    EXPECT_GT(testbed.receiver().stack().socket(flow).delivered_to_app(),
              kMiB)
        << "flow " << flow << " starved";
  }
}

TEST(GrantSchedulerTest, CreditBoundsPerFlowInflight) {
  ExperimentConfig config = rdt_config(8);
  Testbed testbed(config);
  Workload workload = build_workload(testbed, config.traffic);
  workload.start();
  testbed.run_until(20 * kMillisecond);
  // No socket may ever hold more un-received credit than one grant
  // quantum plus the unscheduled allowance.
  for (int flow = 0; flow < 8; ++flow) {
    EXPECT_LE(testbed.receiver().stack().tcp_socket(flow).credit_outstanding(),
              kGrantBytes + kUnscheduledBytes);
  }
}

TEST(GrantSchedulerTest, ReducesIncastCacheContention) {
  ExperimentConfig tcp = rdt_config(8);
  tcp.stack.receiver_driven = false;
  const Metrics sender_driven = run_experiment(tcp);
  const Metrics receiver_driven = run_experiment(rdt_config(8));
  // The §3.3 claim: receiver control over flow concurrency removes the
  // incast miss-rate blowup and recovers throughput-per-core.
  EXPECT_LT(receiver_driven.rx_copy_miss_rate,
            sender_driven.rx_copy_miss_rate * 0.7);
  EXPECT_GT(receiver_driven.throughput_per_core_gbps,
            sender_driven.throughput_per_core_gbps);
}

TEST(GrantSchedulerTest, GrantOnSenderDrivenSocketIsAContractError) {
  ExperimentConfig config;
  Testbed testbed(config);
  auto endpoints = testbed.make_flow({0, 0}, {1, 0});
  Context ctx{"driver", false};
  testbed.receiver().core(0).post(ctx, [&](Core& c) {
    EXPECT_DEATH(static_cast<TcpSocket*>(endpoints.at_receiver)->grant_credit(c, 1000),
                 "sender-driven");
  });
  testbed.run_to_completion();
}

}  // namespace
}  // namespace hostsim
