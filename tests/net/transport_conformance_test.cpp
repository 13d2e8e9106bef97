// Transport conformance: every net::Transport implementation must
// provide the same externally observable contract behind the seam —
// connection establishment, whole-payload delivery (byte conservation)
// under clean links, random loss, and abort(), with the cluster's
// end-of-run invariants (per-flow conservation, page-leak freedom, RTO
// liveness) holding throughout.  Parameterized over {tcp, homa} so a
// future transport joins by adding a row.
#include <gtest/gtest.h>

#include <string>

#include "core/testbed.h"
#include "net/transport.h"
#include "sim/invariant_checker.h"
#include "sim/rng.h"

namespace hostsim {
namespace {

struct ConformanceParam {
  const char* name;
  TransportKind kind;
  double loss;
  std::uint64_t seed;
};

ExperimentConfig base_config(const ConformanceParam& param) {
  ExperimentConfig config;
  config.stack.transport.kind = param.kind;
  config.loss_rate = param.loss;
  config.seed = param.seed;
  return config;
}

std::string clean_report(Cluster& cluster) {
  InvariantChecker checker;
  cluster.register_invariants(checker);
  return InvariantChecker::format(checker.run());
}

class TransportConformance
    : public ::testing::TestWithParam<ConformanceParam> {};

// connect()/listen() establish a working connection over any transport:
// the handshake is stack-owned; the transport only supplies the socket.
TEST_P(TransportConformance, ConnectAcceptAndTransfer) {
  const ConformanceParam param = GetParam();
  Testbed testbed(base_config(param));
  testbed.receiver().stack().listen(
      /*app_core=*/0, /*backlog=*/4, [](Core&, TransportSocket&) {});

  bool connected = false;
  const int flow = testbed.open_flow(
      {0, 0}, {testbed.num_hosts() - 1, 0},
      /*syn_retry=*/2 * kMillisecond, /*max_syn_retries=*/6,
      [&connected](bool established) { connected = established; });
  testbed.run_until(testbed.now() + 20 * kMillisecond);
  ASSERT_TRUE(connected) << param.name;

  TransportSocket* tx = testbed.sender().stack().find_socket(flow);
  TransportSocket* rx = testbed.receiver().stack().find_socket(flow);
  ASSERT_NE(tx, nullptr);
  ASSERT_NE(rx, nullptr);

  Context ctx{"driver", false};
  Bytes sent = 0;
  testbed.sender().core(0).post(ctx, [tx, &sent](Core& c) {
    sent = tx->send(c, 64 * kKiB);
  });
  for (int i = 0; i < 100 && rx->delivered_to_app() < 64 * kKiB; ++i) {
    testbed.receiver().core(0).post(
        ctx, [rx](Core& c) { rx->recv(c, 1 * kMiB); });
    testbed.run_until(testbed.now() + 5 * kMillisecond);
  }
  EXPECT_EQ(sent, 64 * kKiB) << param.name;
  EXPECT_EQ(rx->delivered_to_app(), sent) << param.name;
  EXPECT_EQ(clean_report(testbed), "") << param.name;
}

// Arbitrary deterministic interleavings of sends, receives and idle
// periods must conserve bytes end to end: exactly the accepted payload
// reaches the application, nothing is duplicated, and no pages leak.
TEST_P(TransportConformance, ByteConservationUnderRandomDriving) {
  const ConformanceParam param = GetParam();
  Testbed testbed(base_config(param));
  auto endpoints = testbed.make_flow({0, 0}, {1, 0});
  TransportSocket* tx = endpoints.at_sender;
  TransportSocket* rx = endpoints.at_receiver;

  Rng rng(param.seed * 7919 + 13);
  Context ctx{"driver", false};
  Bytes sent = 0;
  for (int step = 0; step < 250; ++step) {
    switch (rng.next_below(3)) {
      case 0: {
        const Bytes bytes = 1 + static_cast<Bytes>(rng.next_below(200'000));
        testbed.sender().core(0).post(ctx, [tx, bytes, &sent](Core& c) {
          sent += tx->send(c, bytes);
        });
        break;
      }
      case 1: {
        const Bytes bytes = 1 + static_cast<Bytes>(rng.next_below(300'000));
        testbed.receiver().core(0).post(
            ctx, [rx, bytes](Core& c) { rx->recv(c, bytes); });
        break;
      }
      case 2:
        break;  // idle
    }
    testbed.run_until(testbed.now() +
                             static_cast<Nanos>(rng.next_below(300'000)));
  }
  // Drain: loss recovery (fast retransmit / RTO / RESEND + restart)
  // needs generous simulated time, not wall time.  The sender's queue
  // empties only when the last acknowledgment reaches it, which can be
  // after the receiver holds every byte.
  const auto drained = [&] {
    return rx->delivered_to_app() >= sent && tx->send_queue_empty();
  };
  for (int i = 0; i < 300 && !drained(); ++i) {
    testbed.receiver().core(0).post(
        ctx, [rx](Core& c) { rx->recv(c, 10 * kMiB); });
    testbed.run_until(testbed.now() + 5 * kMillisecond);
  }

  EXPECT_EQ(rx->delivered_to_app(), sent) << param.name;
  EXPECT_EQ(rx->readable(), 0) << param.name;
  EXPECT_TRUE(tx->send_queue_empty()) << param.name;
  EXPECT_EQ(clean_report(testbed), "") << param.name;
}

// abort() mid-flight must tear down both directions without leaking
// pages or breaking the conservation ledger: undelivered completed
// bytes are accounted as destroyed, in-flight state is released.
TEST_P(TransportConformance, AbortMidFlightStaysConservative) {
  const ConformanceParam param = GetParam();
  Testbed testbed(base_config(param));
  auto endpoints = testbed.make_flow({0, 0}, {1, 0});
  TransportSocket* tx = endpoints.at_sender;
  TransportSocket* rx = endpoints.at_receiver;

  // The app must observe terminal failures (fault-disposition
  // invariant) — real applications always install an error callback.
  tx->set_error_callback([](SocketError) {});
  rx->set_error_callback([](SocketError) {});

  Context ctx{"driver", false};
  for (int burst = 0; burst < 8; ++burst) {
    testbed.sender().core(0).post(ctx, [tx](Core& c) {
      tx->send(c, 256 * kKiB);
    });
    testbed.run_until(testbed.now() + 200 * kMicrosecond);
  }
  // Kill the receiver first (data in reassembly and unread queues),
  // then the sender (pinned tx pages, armed timers).
  testbed.receiver().core(0).post(ctx, [rx](Core& c) {
    rx->abort(c, SocketError::econnreset);
  });
  testbed.sender().core(0).post(ctx, [tx](Core& c) {
    tx->abort(c, SocketError::econnreset);
  });
  testbed.run_until(testbed.now() + 20 * kMillisecond);

  // Note: no send_queue_empty() assertion — TCP's legacy abort keeps
  // the (page-released) queue structure; the page-leak and conservation
  // invariants below are the actual contract.
  EXPECT_TRUE(tx->dead()) << param.name;
  EXPECT_TRUE(rx->dead()) << param.name;
  EXPECT_EQ(rx->readable(), 0) << param.name;
  EXPECT_EQ(clean_report(testbed), "") << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TransportConformance,
    ::testing::Values(
        ConformanceParam{"tcp_clean", TransportKind::tcp, 0.0, 1},
        ConformanceParam{"tcp_lossy", TransportKind::tcp, 0.005, 2},
        ConformanceParam{"homa_clean", TransportKind::homa, 0.0, 3},
        ConformanceParam{"homa_lossy", TransportKind::homa, 0.005, 4},
        ConformanceParam{"homa_very_lossy", TransportKind::homa, 0.02, 5}),
    [](const ::testing::TestParamInfo<ConformanceParam>& info) {
      return std::string(info.param.name);
    });

// Homa-specific semantics: whole messages complete shortest-first.  A
// short message sent behind a long one overtakes it (the long message
// is still collecting grants when the short one's unscheduled window
// covers it entirely) — the opposite of TCP's FIFO byte stream.
TEST(HomaTransport, SrptShortMessageOvertakesLong) {
  ExperimentConfig config;
  config.stack.transport.kind = TransportKind::homa;
  Testbed testbed(config);
  auto endpoints = testbed.make_flow({0, 0}, {1, 0});
  TransportSocket* tx = endpoints.at_sender;
  TransportSocket* rx = endpoints.at_receiver;

  Context ctx{"driver", false};
  testbed.sender().core(0).post(ctx, [tx](Core& c) {
    tx->send(c, 2 * kMiB);    // long: needs grants beyond 64KB
    tx->send(c, 32 * kKiB);   // short: all-unscheduled
  });
  // Run until the first completion lands, then look at what completed.
  for (int i = 0; i < 100 && rx->rx_covered() == 0; ++i) {
    testbed.run_until(testbed.now() + 10 * kMicrosecond);
  }
  ASSERT_GT(rx->rx_covered(), 0);
  EXPECT_EQ(rx->rx_covered(), 32 * kKiB);  // the short message, whole
  EXPECT_LT(rx->rx_covered(), 2 * kMiB);   // long still in reassembly
}

}  // namespace
}  // namespace hostsim
