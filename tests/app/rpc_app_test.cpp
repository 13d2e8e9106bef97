#include "app/rpc_app.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/testbed.h"

namespace hostsim {
namespace {

struct RpcFixture : ::testing::Test {
  void build(int connections, Bytes rpc_size) {
    ExperimentConfig config;
    testbed = std::make_unique<Testbed>(config);
    for (int i = 0; i < connections; ++i) {
      auto endpoints = testbed->make_flow({0, i}, {1, 0});
      servers.push_back(std::make_unique<RpcServer>(
          testbed->receiver().core(0), *endpoints.at_receiver, rpc_size));
      clients.push_back(std::make_unique<RpcClient>(
          testbed->sender().core(i), *endpoints.at_sender, rpc_size));
    }
  }

  void start_and_run(Nanos duration) {
    for (auto& client : clients) client->start();
    testbed->run_until(duration);
  }

  std::unique_ptr<Testbed> testbed;
  std::vector<std::unique_ptr<RpcServer>> servers;
  std::vector<std::unique_ptr<RpcClient>> clients;
};

TEST_F(RpcFixture, SingleConnectionPingPongs) {
  build(1, 4 * kKiB);
  start_and_run(5 * kMillisecond);
  EXPECT_GT(clients[0]->completed(), 50u);
  // Server answered everything the client completed (+- one in flight).
  EXPECT_GE(servers[0]->served(), clients[0]->completed());
  EXPECT_LE(servers[0]->served(), clients[0]->completed() + 1);
}

TEST_F(RpcFixture, TransactionsMoveExactPayloads) {
  build(1, 16 * kKiB);
  start_and_run(5 * kMillisecond);
  const std::uint64_t done = clients[0]->completed();
  EXPECT_GT(done, 0u);
  // Client received exactly one response per completed transaction.
  EXPECT_EQ(testbed->sender().stack().socket(0).delivered_to_app(),
            static_cast<Bytes>(done) * 16 * kKiB);
}

TEST_F(RpcFixture, SixteenConnectionsShareTheServerCore) {
  build(16, 4 * kKiB);
  start_and_run(10 * kMillisecond);
  std::uint64_t total = 0;
  std::uint64_t min_done = ~0ull;
  for (auto& client : clients) {
    total += client->completed();
    min_done = std::min(min_done, client->completed());
  }
  EXPECT_GT(total, 500u);
  EXPECT_GT(min_done, 0u);  // no connection starves
}

TEST_F(RpcFixture, LargerRpcsMoveMoreBytesPerTransaction) {
  build(4, 64 * kKiB);
  start_and_run(10 * kMillisecond);
  std::uint64_t total = 0;
  for (auto& client : clients) total += client->completed();
  EXPECT_GT(total, 100u);
  EXPECT_EQ(testbed->receiver().stack().total_delivered_to_app(),
            static_cast<Bytes>(servers[0]->served() + servers[1]->served() +
                               servers[2]->served() + servers[3]->served()) *
                64 * kKiB);
}

TEST_F(RpcFixture, ServerThreadsWakePerTransaction) {
  build(2, 4 * kKiB);
  start_and_run(5 * kMillisecond);
  // Process-per-connection: each transaction wakes its server thread.
  EXPECT_GT(servers[0]->thread().wakeups(), servers[0]->served() / 2);
}

}  // namespace
}  // namespace hostsim
