// Stack-level receive-path behaviour: NAPI budget, ACK fast path,
// unknown-flow handling, GRO flush per poll round, and host byte totals
// across socket retirement.
#include "net/stack.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/testbed.h"

namespace hostsim {
namespace {

struct StackFixture : ::testing::Test {
  void SetUp() override {
    ExperimentConfig config;
    testbed = std::make_unique<Testbed>(config);
    auto endpoints = testbed->make_flow({0, 0}, {1, 0});
    tx = endpoints.at_sender;
    rx = endpoints.at_receiver;
  }

  template <class Fn>
  void on_sender(Fn fn) {
    static Context ctx{"driver", false};
    testbed->sender().core(0).post(ctx, [fn](Core& c) mutable { fn(c); });
  }

  std::unique_ptr<Testbed> testbed;
  TransportSocket* tx = nullptr;
  TransportSocket* rx = nullptr;
};

TEST_F(StackFixture, SocketTableRoutesByFlow) {
  EXPECT_EQ(&testbed->receiver().stack().socket(0), rx);
  EXPECT_EQ(&testbed->sender().stack().socket(0), tx);
}

TEST_F(StackFixture, CreateSocketRejectsDuplicateFlow) {
  EXPECT_DEATH(testbed->receiver().stack().create_socket(0, 1),
               "already has a socket");
}

TEST_F(StackFixture, TotalDeliveredAggregatesSockets) {
  auto more = testbed->make_flow({0, 1}, {1, 1});
  on_sender([this](Core& c) { tx->send(c, 64 * kKiB); });
  testbed->run_until(2 * kMillisecond);
  Context ctx{"driver", false};
  testbed->receiver().core(0).post(
      ctx, [this](Core& c) { rx->recv(c, kMiB); });
  testbed->run_until(3 * kMillisecond);
  EXPECT_EQ(testbed->receiver().stack().total_delivered_to_app(),
            rx->delivered_to_app() + more.at_receiver->delivered_to_app());
}

TEST_F(StackFixture, SkbSizeStatsRecordDeliveredSkbs) {
  on_sender([this](Core& c) { tx->send(c, 256 * kKiB); });
  testbed->run_until(3 * kMillisecond);
  EXPECT_GT(testbed->receiver().stack().stats().skb_sizes.histogram().count(),
            0u);
  // With one saturating flow GRO merges deeply: mean well above one MTU.
  EXPECT_GT(testbed->receiver().stack().stats().skb_sizes.mean(), 9000.0);
}

TEST_F(StackFixture, BeginMeasurementClearsHostStats) {
  on_sender([this](Core& c) { tx->send(c, 256 * kKiB); });
  testbed->run_until(3 * kMillisecond);
  auto& stats = testbed->receiver().stack().stats();
  EXPECT_GT(stats.acks_sent, 0u);
  testbed->receiver().stack().begin_measurement();
  EXPECT_EQ(stats.acks_sent, 0u);
  EXPECT_EQ(stats.skb_sizes.histogram().count(), 0u);
}

TEST_F(StackFixture, AcksReachTheSenderAndFreeTheBuffer) {
  on_sender([this](Core& c) { tx->send(c, 128 * kKiB); });
  testbed->run_until(2 * kMillisecond);
  Context ctx{"driver", false};
  testbed->receiver().core(0).post(
      ctx, [this](Core& c) { rx->recv(c, kMiB); });
  testbed->run_until(4 * kMillisecond);
  EXPECT_GT(testbed->sender().stack().stats().acks_received, 0u);
  EXPECT_TRUE(tx->send_queue_empty());
}

TEST_F(StackFixture, NapiBudgetBoundsPerPollWork) {
  // Send far more frames than one budget; everything must still arrive
  // (the poll re-posts itself via ksoftirqd).
  const Bytes bytes = 4 * kMiB;  // ~466 jumbo frames > budget 300
  on_sender([this, bytes](Core& c) { tx->send(c, bytes); });
  for (int i = 0; i < 20; ++i) {
    Context ctx{"driver", false};
    testbed->receiver().core(0).post(
        ctx, [this](Core& c) { rx->recv(c, 10 * kMiB); });
    testbed->run_until((i + 1) * kMillisecond);
  }
  EXPECT_EQ(rx->delivered_to_app(), bytes);
}

// Host byte totals count every socket the host has had: retiring a
// socket — active close into TIME_WAIT, passive close on FIN, or
// destroy_socket() after an abort — must not take its lifetime bytes
// out of the total (the measurement window and the watchdog's progress
// probe both difference it).
TEST(StackRetirement, DeliveredTotalNeverDecreases) {
  ExperimentConfig config;
  Testbed testbed(config);
  Stack& client = testbed.sender().stack();
  Stack& server = testbed.receiver().stack();
  Context ctx{"driver", false};
  auto on = [&ctx](Core& core, auto fn) { core.post(ctx, fn); };
  auto settle = [&testbed] {
    testbed.run_until(testbed.now() + 5 * kMillisecond);
  };

  // A handshaked connection carrying one exchange each way.
  server.listen(/*app_core=*/0, /*backlog=*/4, [](Core&, TransportSocket&) {});
  bool connected = false;
  const int flow = testbed.open_flow(
      {0, 0}, {1, 0}, /*syn_retry=*/2 * kMillisecond, /*max_syn_retries=*/6,
      [&connected](bool established) { connected = established; });
  settle();
  ASSERT_TRUE(connected);
  TransportSocket& c = client.socket(flow);
  TransportSocket& s = server.socket(flow);
  on(testbed.sender().core(0), [&c](Core& core) { c.send(core, 64 * kKiB); });
  settle();
  on(testbed.receiver().core(0), [&s](Core& core) {
    s.recv(core, kMiB);
    s.send(core, 32 * kKiB);
  });
  settle();
  on(testbed.sender().core(0), [&c](Core& core) { c.recv(core, kMiB); });
  settle();
  ASSERT_EQ(c.delivered_to_app(), 32 * kKiB);
  ASSERT_EQ(s.delivered_to_app(), 64 * kKiB);

  // Active close retires the client socket into TIME_WAIT; the FIN then
  // retires the server socket (passive close).
  on(testbed.sender().core(0),
     [&client, flow](Core& core) { client.close(core, flow, kMillisecond); });
  settle();
  EXPECT_FALSE(client.has_socket(flow));
  EXPECT_FALSE(server.has_socket(flow));
  EXPECT_EQ(client.total_delivered_to_app(), 32 * kKiB);
  EXPECT_EQ(server.total_delivered_to_app(), 64 * kKiB);

  // An aborted, destroyed pre-established flow keeps its bytes too.
  auto endpoints = testbed.make_flow({0, 1}, {1, 1});
  TransportSocket* tx = endpoints.at_sender;
  TransportSocket* rx = endpoints.at_receiver;
  on(testbed.sender().core(1), [tx](Core& core) { tx->send(core, 16 * kKiB); });
  settle();
  on(testbed.receiver().core(1), [rx](Core& core) { rx->recv(core, kMiB); });
  settle();
  ASSERT_EQ(rx->delivered_to_app(), 16 * kKiB);
  const int doomed = tx->flow();
  on(testbed.receiver().core(1), [rx, &server, doomed](Core& core) {
    rx->abort(core, SocketError::econnreset);
    server.destroy_socket(doomed);
  });
  settle();
  EXPECT_FALSE(server.has_socket(doomed));
  EXPECT_EQ(server.total_delivered_to_app(), 80 * kKiB);
  EXPECT_EQ(client.total_delivered_to_app(), 32 * kKiB);
}

}  // namespace
}  // namespace hostsim
