// TCP socket behaviour, exercised end to end over a real testbed (two
// hosts + wire) with a driver thread standing in for the application.
#include "net/tcp_socket.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/testbed.h"

namespace hostsim {
namespace {

struct SocketFixture : ::testing::Test {
  void SetUp() override { build({}); }

  void build(const StackConfig& stack) {
    ExperimentConfig config;
    config.stack = stack;
    testbed = std::make_unique<Testbed>(config);
    auto endpoints = testbed->make_flow({0, 0}, {1, 0});
    tx = static_cast<TcpSocket*>(endpoints.at_sender);
    rx = static_cast<TcpSocket*>(endpoints.at_receiver);
  }

  /// Runs `fn` in a user task on `core` of `host`.
  template <class Fn>
  void on_core(Host& host, int core, Fn fn) {
    static Context ctx{"driver", false};
    host.core(core).post(ctx, [fn](Core& c) mutable { fn(c); });
  }

  void run_for(Nanos duration) {
    testbed->run_until(testbed->now() + duration);
  }

  std::unique_ptr<Testbed> testbed;
  TcpSocket* tx = nullptr;
  TcpSocket* rx = nullptr;
};

TEST_F(SocketFixture, BytesFlowEndToEnd) {
  on_core(testbed->sender(), 0, [this](Core& c) { tx->send(c, 256 * kKiB); });
  run_for(5 * kMillisecond);
  EXPECT_EQ(rx->readable(), 256 * kKiB);
  on_core(testbed->receiver(), 0, [this](Core& c) {
    EXPECT_EQ(rx->recv(c, 10 * kMiB), 256 * kKiB);
  });
  run_for(kMillisecond);
  EXPECT_EQ(rx->delivered_to_app(), 256 * kKiB);
  EXPECT_EQ(rx->readable(), 0);
}

TEST_F(SocketFixture, SendBoundedBySendBuffer) {
  on_core(testbed->sender(), 0, [this](Core& c) {
    const Bytes huge = 100 * kMiB;
    const Bytes accepted = tx->send(c, huge);
    EXPECT_LE(accepted, Stack::kSndBuf);
    EXPECT_GT(accepted, 0);
  });
  run_for(kMillisecond);
}

TEST_F(SocketFixture, SendBufferFreesAsAcksArrive) {
  on_core(testbed->sender(), 0, [this](Core& c) { tx->send(c, 4 * kMiB); });
  run_for(kMillisecond);
  // Receiver drains; ACKs free the send buffer.
  for (int i = 0; i < 50; ++i) {
    on_core(testbed->receiver(), 0, [this](Core& c) { rx->recv(c, kMiB); });
    run_for(kMillisecond);
  }
  EXPECT_EQ(tx->send_space(), Stack::kSndBuf);
  EXPECT_TRUE(tx->send_queue_empty());
}

TEST_F(SocketFixture, SequencesContinuousNoLoss) {
  // Stream several MB and verify every byte arrives exactly once.
  Bytes sent = 0;
  for (int round = 0; round < 20; ++round) {
    on_core(testbed->sender(), 0, [this, &sent](Core& c) {
      sent += tx->send(c, 512 * kKiB);
    });
    on_core(testbed->receiver(), 0, [this](Core& c) { rx->recv(c, 10 * kMiB); });
    run_for(2 * kMillisecond);
  }
  on_core(testbed->receiver(), 0, [this](Core& c) { rx->recv(c, 100 * kMiB); });
  run_for(2 * kMillisecond);
  EXPECT_EQ(rx->delivered_to_app(), sent);
  EXPECT_EQ(tx->retransmits(), 0u);
}

TEST_F(SocketFixture, FlowControlNeverOverrunsReceiveBuffer) {
  StackConfig stack;
  stack.tcp_rx_buf = 512 * kKiB;  // fixed, no autotune
  build(stack);
  on_core(testbed->sender(), 0, [this](Core& c) { tx->send(c, 4 * kMiB); });
  run_for(10 * kMillisecond);
  // Nothing recv'd: queued payload is bounded by the configured buffer.
  EXPECT_LE(rx->readable(), 512 * kKiB);
  EXPECT_EQ(testbed->receiver().stack().stats().rcv_queue_drops, 0u);
}

TEST_F(SocketFixture, ReceiverWindowOpensAfterRecv) {
  StackConfig stack;
  stack.tcp_rx_buf = 512 * kKiB;
  build(stack);
  on_core(testbed->sender(), 0, [this](Core& c) { tx->send(c, 4 * kMiB); });
  run_for(10 * kMillisecond);
  const Bytes stalled_at = rx->delivered_to_app() + rx->readable();
  for (int i = 0; i < 20; ++i) {
    on_core(testbed->receiver(), 0, [this](Core& c) { rx->recv(c, kMiB); });
    run_for(kMillisecond);
  }
  EXPECT_GT(rx->delivered_to_app() + rx->readable(), stalled_at);
}

TEST_F(SocketFixture, LostFramesAreRetransmitted) {
  ExperimentConfig config;
  config.loss_rate = 0.02;
  config.seed = 3;
  testbed = std::make_unique<Testbed>(config);
  auto endpoints = testbed->make_flow({0, 0}, {1, 0});
  tx = static_cast<TcpSocket*>(endpoints.at_sender);
  rx = static_cast<TcpSocket*>(endpoints.at_receiver);

  Bytes sent = 0;
  for (int round = 0; round < 40; ++round) {
    on_core(testbed->sender(), 0, [this, &sent](Core& c) {
      sent += tx->send(c, 256 * kKiB);
    });
    on_core(testbed->receiver(), 0, [this](Core& c) { rx->recv(c, 10 * kMiB); });
    run_for(3 * kMillisecond);
  }
  // Give recovery time to finish, then drain.
  for (int i = 0; i < 40; ++i) {
    on_core(testbed->receiver(), 0, [this](Core& c) { rx->recv(c, 100 * kMiB); });
    run_for(5 * kMillisecond);
  }
  EXPECT_GT(tx->retransmits(), 0u);
  EXPECT_EQ(rx->delivered_to_app(), sent);  // reliable despite loss
}

TEST_F(SocketFixture, DupAcksTriggerFastRetransmitNotRto) {
  ExperimentConfig config;
  config.loss_rate = 0.005;
  config.seed = 11;
  testbed = std::make_unique<Testbed>(config);
  auto endpoints = testbed->make_flow({0, 0}, {1, 0});
  tx = static_cast<TcpSocket*>(endpoints.at_sender);
  rx = static_cast<TcpSocket*>(endpoints.at_receiver);
  for (int round = 0; round < 30; ++round) {
    on_core(testbed->sender(), 0, [this](Core& c) { tx->send(c, 512 * kKiB); });
    on_core(testbed->receiver(), 0, [this](Core& c) { rx->recv(c, 10 * kMiB); });
    run_for(2 * kMillisecond);
  }
  EXPECT_GT(testbed->sender().stack().stats().dup_acks, 0u);
  EXPECT_GT(tx->retransmits(), 0u);
}

TEST_F(SocketFixture, PureWindowUpdatesAreNotDupAcks) {
  // Regression: reading in small chunks generates many window updates;
  // none may be interpreted as loss.
  on_core(testbed->sender(), 0, [this](Core& c) { tx->send(c, 4 * kMiB); });
  run_for(5 * kMillisecond);
  for (int i = 0; i < 100; ++i) {
    on_core(testbed->receiver(), 0, [this](Core& c) { rx->recv(c, 64 * kKiB); });
    run_for(200'000);
  }
  EXPECT_EQ(tx->retransmits(), 0u);
}

TEST_F(SocketFixture, RcvBufAutotuneGrowsTowardMax) {
  // Continuous consumption drives DRS doubling up to tcp_rmem[2].
  on_core(testbed->sender(), 0, [this](Core& c) { tx->send(c, 4 * kMiB); });
  Bytes drained = 0;
  for (int i = 0; i < 100; ++i) {
    on_core(testbed->sender(), 0, [this](Core& c) { tx->send(c, kMiB); });
    on_core(testbed->receiver(), 0, [this, &drained](Core& c) {
      drained += rx->recv(c, 10 * kMiB);
    });
    run_for(kMillisecond);
  }
  // With the ~6.4MB default cap and 2x truesize accounting, more than
  // 1MB of payload can be queued only after the buffer grew.
  EXPECT_GT(drained + rx->readable(), 20 * kMiB);
}

TEST_F(SocketFixture, RetransmitTimeoutRecoversTailLoss) {
  // Heavy loss (both directions): fast retransmit often cannot fire and
  // the RTO path must recover.
  ExperimentConfig config;
  config.loss_rate = 0.5;
  config.seed = 5;
  testbed = std::make_unique<Testbed>(config);
  auto endpoints = testbed->make_flow({0, 0}, {1, 0});
  tx = static_cast<TcpSocket*>(endpoints.at_sender);
  rx = static_cast<TcpSocket*>(endpoints.at_receiver);
  on_core(testbed->sender(), 0, [this](Core& c) { tx->send(c, 64 * kKiB); });
  // RTO backoff doubles from a 2 ms floor; give it time.
  for (int i = 0; i < 100; ++i) {
    on_core(testbed->receiver(), 0, [this](Core& c) { rx->recv(c, kMiB); });
    run_for(10 * kMillisecond);
  }
  EXPECT_GT(tx->retransmits(), 0u);
  EXPECT_GT(rx->delivered_to_app(), 0);
}

}  // namespace
}  // namespace hostsim
