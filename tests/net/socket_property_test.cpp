// Randomized property test: drive a socket pair with an arbitrary but
// deterministic interleaving of sends, receives and idle periods, under
// several stack configurations, and assert end-to-end invariants.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/testbed.h"
#include "sim/rng.h"

namespace hostsim {
namespace {

struct PropertyParam {
  const char* name;
  bool jumbo;
  bool gro;
  bool arfs;
  double loss;
  std::uint64_t seed;
};

class SocketProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(SocketProperty, ByteConservationUnderRandomDriving) {
  const PropertyParam param = GetParam();
  ExperimentConfig config;
  config.stack.jumbo = param.jumbo;
  config.stack.gro = param.gro;
  config.stack.arfs = param.arfs;
  config.loss_rate = param.loss;
  config.seed = param.seed;
  Testbed testbed(config);
  auto endpoints = testbed.make_flow({0, 0}, {1, 0});
  TransportSocket* tx = endpoints.at_sender;
  TransportSocket* rx = endpoints.at_receiver;

  Rng rng(param.seed * 7919 + 13);
  Context ctx{"driver", false};
  Bytes sent = 0;
  for (int step = 0; step < 300; ++step) {
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
  // Drain: no new sends; keep receiving until everything arrived (give
  // loss recovery generous time).
  for (int i = 0; i < 300 && rx->delivered_to_app() < sent; ++i) {
    testbed.receiver().core(0).post(
        ctx, [rx](Core& c) { rx->recv(c, 10 * kMiB); });
    testbed.run_until(testbed.now() + 5 * kMillisecond);
  }

  // Invariants: exactly the accepted bytes arrive (reliability), in
  // order (delivered counter equals accepted), and no pages leak on
  // either host once queues are drained (the rx ring and tx pool may
  // legitimately hold pages).
  EXPECT_EQ(rx->delivered_to_app(), sent) << param.name;
  EXPECT_EQ(rx->readable(), 0) << param.name;
  EXPECT_TRUE(tx->send_queue_empty()) << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SocketProperty,
    ::testing::Values(
        PropertyParam{"jumbo_gro_arfs", true, true, true, 0.0, 1},
        PropertyParam{"mtu1500", false, true, true, 0.0, 2},
        PropertyParam{"no_gro", true, false, true, 0.0, 3},
        PropertyParam{"no_arfs", true, true, false, 0.0, 4},
        PropertyParam{"lossy", true, true, true, 0.005, 5},
        PropertyParam{"lossy_no_gro", true, false, true, 0.01, 6},
        PropertyParam{"seed7", true, true, true, 0.0, 7},
        PropertyParam{"lossy_seed8", true, true, true, 0.002, 8}),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace hostsim
