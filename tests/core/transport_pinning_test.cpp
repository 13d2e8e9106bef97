// Legacy pinning for the transport seam: introducing net::Transport and
// TransportConfig must not move a single bit of any default-transport
// artifact.  Pins:
//  * the default ExperimentConfig hash and fig03e / fig05 campaign point
//    hashes under config schema 2 (cache keys: a shift here silently
//    invalidates .hostsim-cache and every saved baseline),
//  * full metrics-JSON fingerprints of short deterministic runs, which
//    pin the simulation itself: single-flow and 8:1 incast (captured on
//    the pre-seam tree), plus a Homa 8:1 incast and a zero-copy,
//    remote-NUMA, aRFS-off one-to-one (captured before TCP and Homa
//    moved onto the shared socket core) that reach the core's
//    message-copy, pin/remap and contended-lock paths.
#include <gtest/gtest.h>

#include <string>

#include "core/experiment.h"
#include "core/serialize.h"
#include "sweep/campaigns.h"

namespace hostsim {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(TransportPinning, DefaultConfigHashUnchanged) {
  ExperimentConfig config;
  EXPECT_EQ(hash_hex(config_hash(config)), "0x48f3d88d8622a4c7");
  // A non-default transport must hash differently (the transport block
  // is part of the key).
  config.stack.transport.kind = TransportKind::homa;
  EXPECT_NE(hash_hex(config_hash(config)), "0x48f3d88d8622a4c7");
}

TEST(TransportPinning, Fig03eCampaignPointHashes) {
  auto campaign = sweep::find_campaign("fig03e_cache_miss");
  ASSERT_TRUE(campaign.has_value());
  const auto points = campaign->expand();
  ASSERT_EQ(points.size(), 28u);
  // Pin the corners and the legacy default point (ring=1024 autotune,
  // which coincides with the default config hash).
  EXPECT_EQ(hash_hex(config_hash(points.front().config)),
            "0xf1370610d567d025");
  EXPECT_EQ(hash_hex(config_hash(points[15].config)),
            "0x48f3d88d8622a4c7");
  EXPECT_EQ(hash_hex(config_hash(points.back().config)),
            "0xb62e335965998274");
}

TEST(TransportPinning, Fig05CampaignPointHashes) {
  auto campaign = sweep::find_campaign("fig05_one_to_one");
  ASSERT_TRUE(campaign.has_value());
  const auto points = campaign->expand();
  ASSERT_EQ(points.size(), 4u);
  const char* expected[] = {"0x41b70b6949768f85", "0x3b0b7d8cf1f9cab2",
                            "0xd7ac2f846c654e2b", "0x01c5777893d0459e"};
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(hash_hex(config_hash(points[i].config)), expected[i])
        << points[i].label();
  }
}

TEST(TransportPinning, SingleFlowShortRunBitIdentical) {
  ExperimentConfig config;
  config.warmup = 2 * kMillisecond;
  config.duration = 3 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  EXPECT_DOUBLE_EQ(metrics.total_gbps, 44.240383999999999);
  EXPECT_EQ(metrics.app_bytes, 16590144);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0x3d2080b19ba7ba26ull);
}

TEST(TransportPinning, Incast8ShortRunBitIdentical) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::incast;
  config.traffic.flows = 8;
  config.warmup = 2 * kMillisecond;
  config.duration = 3 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  EXPECT_DOUBLE_EQ(metrics.total_gbps, 25.246976);
  EXPECT_EQ(metrics.app_bytes, 9467616);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0xcd8035ea951d07bdull);
}

// The shared socket core under the Homa transport: message-granular
// user copies, completed-message receive queue, grant-side locking.
TEST(TransportPinning, HomaIncast8ShortRunBitIdentical) {
  ExperimentConfig config;
  config.stack.transport.kind = TransportKind::homa;
  config.traffic.pattern = Pattern::incast;
  config.traffic.flows = 8;
  config.warmup = 2 * kMillisecond;
  config.duration = 3 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  EXPECT_DOUBLE_EQ(metrics.total_gbps, 31.710805333333333);
  EXPECT_EQ(metrics.app_bytes, 11891552);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0xefe68f878777beb6ull);
}

// The shared socket core's side branches: MSG_ZEROCOPY pinning, rx
// page remapping, receivers on the NIC-remote node (flows 6 and 7), and
// the cross-core socket lock with aRFS off.
TEST(TransportPinning, ZeroCopyRemoteNumaShortRunBitIdentical) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::one_to_one;
  config.traffic.flows = 8;
  config.traffic.receiver_app_remote_numa = true;
  config.stack.tx_zerocopy = true;
  config.stack.rx_zerocopy = true;
  config.stack.arfs = false;
  config.warmup = 2 * kMillisecond;
  config.duration = 3 * kMillisecond;
  const Metrics metrics = run_experiment(config);
  EXPECT_DOUBLE_EQ(metrics.total_gbps, 99.017877333333331);
  EXPECT_EQ(metrics.app_bytes, 37131704);
  EXPECT_EQ(fnv1a(metrics_to_json(metrics)), 0x509cd80b974fc97full);
}

}  // namespace
}  // namespace hostsim
