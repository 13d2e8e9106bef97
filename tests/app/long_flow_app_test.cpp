#include "app/long_flow_app.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/testbed.h"

namespace hostsim {
namespace {

struct LongFlowFixture : ::testing::Test {
  void SetUp() override {
    ExperimentConfig config;
    testbed = std::make_unique<Testbed>(config);
    auto endpoints = testbed->make_flow({0, 0}, {1, 0});
    sender = std::make_unique<LongFlowSender>(testbed->sender().core(0),
                                              *endpoints.at_sender);
    receiver = std::make_unique<LongFlowReceiver>(testbed->receiver().core(0),
                                                  *endpoints.at_receiver);
    rx_socket = endpoints.at_receiver;
    tx_socket = endpoints.at_sender;
  }

  std::unique_ptr<Testbed> testbed;
  std::unique_ptr<LongFlowSender> sender;
  std::unique_ptr<LongFlowReceiver> receiver;
  TransportSocket* rx_socket = nullptr;
  TransportSocket* tx_socket = nullptr;
};

TEST_F(LongFlowFixture, StreamsContinuously) {
  sender->start();
  testbed->run_until(10 * kMillisecond);
  // ~42Gbps for 10ms is ~52MB; expect at least half that.
  EXPECT_GT(receiver->received(), 25 * kMiB);
}

TEST_F(LongFlowFixture, SenderBlocksOnFullBufferAndResumes) {
  sender->start();
  testbed->run_until(20 * kMillisecond);
  // The sender must have blocked (buffer full) and been woken at least
  // once: wakeups > 1 proves the block/resume cycle works.
  EXPECT_GE(sender->thread().wakeups(), 1u);
  EXPECT_GT(tx_socket->accepted_from_app(), 50 * kMiB);
}

TEST_F(LongFlowFixture, ReceiverKeepsQueueBounded) {
  sender->start();
  testbed->run_until(20 * kMillisecond);
  // The application drains; the queue is bounded by the rcv buffer.
  EXPECT_LE(rx_socket->readable(), Stack::kRcvBufMax);
}

TEST_F(LongFlowFixture, DeliveredMatchesAcceptedMinusInFlight) {
  sender->start();
  testbed->run_until(15 * kMillisecond);
  const Bytes accepted = tx_socket->accepted_from_app();
  const Bytes delivered = rx_socket->delivered_to_app();
  EXPECT_LE(delivered, accepted);
  // In-flight (socket buffers + wire) is bounded by snd_buf + rcv window.
  EXPECT_LE(accepted - delivered, Stack::kSndBuf + Stack::kRcvBufMax);
}

}  // namespace
}  // namespace hostsim
