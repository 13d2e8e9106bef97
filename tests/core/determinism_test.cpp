// Determinism across the full feature matrix: every configuration must
// reproduce bit-identical metrics for the same seed.
#include <gtest/gtest.h>

#include <string>

#include "core/experiment.h"

namespace hostsim {
namespace {

struct DetParam {
  const char* name;
  ExperimentConfig config;
};

ExperimentConfig quick() {
  ExperimentConfig config;
  config.warmup = 4 * kMillisecond;
  config.duration = 5 * kMillisecond;
  return config;
}

DetParam make(const char* name, void (*mutate)(ExperimentConfig&)) {
  DetParam param{name, quick()};
  mutate(param.config);
  return param;
}

class DeterminismMatrix : public ::testing::TestWithParam<DetParam> {};

TEST_P(DeterminismMatrix, IdenticalTwice) {
  const ExperimentConfig& config = GetParam().config;
  const Metrics a = run_experiment(config);
  const Metrics b = run_experiment(config);
  EXPECT_EQ(a.app_bytes, b.app_bytes);
  EXPECT_EQ(a.sender_cycles.total(), b.sender_cycles.total());
  EXPECT_EQ(a.receiver_cycles.total(), b.receiver_cycles.total());
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.acks_received, b.acks_received);
  EXPECT_EQ(a.rpc_transactions, b.rpc_transactions);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].delivered, b.flows[i].delivered);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Features, DeterminismMatrix,
    ::testing::Values(
        make("baseline", [](ExperimentConfig&) {}),
        make("lossy_bbr",
             [](ExperimentConfig& c) {
               c.loss_rate = 0.01;
               c.stack.cc = CcAlgo::bbr;
               c.seed = 99;
             }),
        make("rpc_zerocopy",
             [](ExperimentConfig& c) {
               c.traffic.pattern = Pattern::rpc_incast;
               c.traffic.flows = 8;
               c.stack.rx_zerocopy = true;
             }),
        make("receiver_driven_incast",
             [](ExperimentConfig& c) {
               c.traffic.pattern = Pattern::incast;
               c.traffic.flows = 8;
               c.stack.receiver_driven = true;
             }),
        make("rfs_steering",
             [](ExperimentConfig& c) {
               c.stack.arfs = false;
               c.stack.fallback_steering = SteeringMode::rfs;
             }),
        make("mixed_traced",
             [](ExperimentConfig& c) {
               c.traffic.pattern = Pattern::mixed;
               c.traffic.flows = 4;
               c.obs.trace_capacity = 1024;
             })),
    [](const ::testing::TestParamInfo<DetParam>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace hostsim
