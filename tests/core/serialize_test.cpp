#include "core/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace hostsim {
namespace {

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(JsonWriter::quote("plain"), "\"plain\"");
  EXPECT_EQ(JsonWriter::quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonWriter::quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonWriter::quote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(JsonWriter::quote(std::string_view("a\x01z", 3)),
            "\"a\\u0001z\"");
}

TEST(JsonWriterTest, BuildsNestedDocuments) {
  JsonWriter w;
  w.begin_object();
  w.key("a").value(std::int64_t{1});
  w.key("b").begin_array();
  w.value(std::int64_t{2}).value("x").value(true);
  w.end_array();
  w.key("c").begin_object().key("d").value(0.5).end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[2,"x",true],"c":{"d":0.5}})");
}

TEST(JsonValueTest, ParsesRoundTrip) {
  const auto doc =
      JsonValue::parse(R"({"n":-42,"f":1.5,"s":"hi\n","b":true,)"
                       R"("arr":[1,2,3],"obj":{"x":null}})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("n")->as_i64(), -42);
  EXPECT_DOUBLE_EQ(doc->find("f")->as_double(), 1.5);
  EXPECT_EQ(doc->find("s")->as_string(), "hi\n");
  EXPECT_TRUE(doc->find("b")->as_bool());
  ASSERT_TRUE(doc->find("arr")->is_array());
  EXPECT_EQ(doc->find("arr")->items().size(), 3u);
  EXPECT_EQ(doc->find("obj")->find("x")->kind(), JsonValue::Kind::null);
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::parse("").has_value());
  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\":}").has_value());
  EXPECT_FALSE(JsonValue::parse("[1,]").has_value());
  EXPECT_FALSE(JsonValue::parse("{} trailing").has_value());
  EXPECT_FALSE(JsonValue::parse("\"unterminated").has_value());
}

TEST(JsonValueTest, DeepNestingIsRejectedNotACrash) {
  EXPECT_FALSE(JsonValue::parse(std::string(2'000'000, '[')).has_value());
  std::string objects;
  for (int i = 0; i < 2'000'000; ++i) objects += "{\"a\":";
  EXPECT_FALSE(JsonValue::parse(objects).has_value());
  // The cap sits far above our own documents' nesting.
  const std::string deepest = std::string(64, '[') + std::string(64, ']');
  EXPECT_TRUE(JsonValue::parse(deepest).has_value());
  EXPECT_FALSE(JsonValue::parse("[" + deepest + "]").has_value());
}

TEST(JsonValueTest, LargeU64SurvivesRoundTrip) {
  JsonWriter w;
  w.begin_object();
  w.key("big").value(std::uint64_t{18446744073709551615ull});
  w.end_object();
  const auto doc = JsonValue::parse(w.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("big")->as_u64(), 18446744073709551615ull);
}

TEST(ConfigHashTest, EqualConfigsHashEqual) {
  ExperimentConfig a;
  ExperimentConfig b;
  EXPECT_EQ(config_hash(a), config_hash(b));
  EXPECT_EQ(config_to_json(a), config_to_json(b));
}

TEST(ConfigHashTest, EveryKnobKindChangesTheHash) {
  const ExperimentConfig base;
  const std::uint64_t h = config_hash(base);

  ExperimentConfig c = base;
  c.seed = 2;
  EXPECT_NE(config_hash(c), h) << "seed must be part of the key";

  c = base;
  c.stack.gro = false;
  EXPECT_NE(config_hash(c), h) << "stack knobs must be part of the key";

  c = base;
  c.traffic.flows = 7;
  EXPECT_NE(config_hash(c), h) << "traffic shape must be part of the key";

  c = base;
  c.cost.copy_cyc_per_byte_hit += 0.001;
  EXPECT_NE(config_hash(c), h) << "cost calibration must be part of the key";

  c = base;
  c.llc.ddio_ways = 2;
  EXPECT_NE(config_hash(c), h) << "cache geometry must be part of the key";

  c = base;
  c.faults.link_flaps.push_back({kMillisecond, kMillisecond});
  EXPECT_NE(config_hash(c), h) << "fault plan must be part of the key";

  c = base;
  c.duration += kMillisecond;
  EXPECT_NE(config_hash(c), h) << "run window must be part of the key";
}

TEST(MetricsJsonTest, RoundTripsExactly) {
  Metrics m;
  m.window = 25 * kMillisecond;
  m.app_bytes = 123456789;
  m.total_gbps = 42.123456789012345;
  m.sender_cores_used = 0.75;
  m.throughput_per_core_gbps = 41.9;
  m.sender_cycles.add(CpuCategory::data_copy, 1000);
  m.receiver_cycles.add(CpuCategory::sched, 31337);
  m.rx_copy_miss_rate = 0.4935;
  m.napi_to_copy_p99 = 81920;
  m.retransmits = 17;
  m.faults.bursty_drops = 5;
  m.faults.watchdog_trips = 1;
  m.rpc_transactions = 99;
  m.flows.push_back({3, 4096, 1.25});
  m.flows.push_back({4, 8192, 2.5});

  const std::string json = metrics_to_json(m);
  const std::optional<Metrics> back = metrics_from_json(json);
  ASSERT_TRUE(back.has_value());
  // %.17g round-trips doubles exactly, so re-serialization is identical.
  EXPECT_EQ(metrics_to_json(*back), json);
  EXPECT_EQ(back->app_bytes, m.app_bytes);
  EXPECT_DOUBLE_EQ(back->total_gbps, m.total_gbps);
  EXPECT_EQ(back->sender_cycles.get(CpuCategory::data_copy), 1000);
  EXPECT_EQ(back->receiver_cycles.get(CpuCategory::sched), 31337);
  EXPECT_EQ(back->faults.bursty_drops, 5u);
  ASSERT_EQ(back->flows.size(), 2u);
  EXPECT_EQ(back->flows[1].delivered, 8192);
}

TEST(MetricsJsonTest, RejectsTruncatedDocuments) {
  const std::string json = metrics_to_json(Metrics{});
  EXPECT_FALSE(metrics_from_json("{}").has_value());
  EXPECT_FALSE(
      metrics_from_json(json.substr(0, json.size() / 2)).has_value());
}

// --- Randomized properties --------------------------------------------------

/// A Metrics with every serialized field set to a random value, and each
/// optional part (fabric, recovery, workload, per_host) on or off at
/// random.  Listed independently of the serializer, so a field the
/// serializer drops or misreads changes the round trip.
Metrics random_metrics(std::mt19937_64& rng) {
  const auto u64 = [&rng] { return rng(); };
  const auto i64 = [&rng] { return static_cast<std::int64_t>(rng()); };
  const auto i32 = [&rng] { return static_cast<int>(rng()); };
  const auto dbl = [&rng] {
    std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
    std::uniform_int_distribution<int> exponent(-40, 70);
    return std::ldexp(mantissa(rng), exponent(rng));
  };
  const auto coin = [&rng] { return (rng() & 1) != 0; };
  const auto length = [&rng] { return static_cast<int>(rng() % 6); };

  Metrics m;
  m.window = i64();
  m.app_bytes = i64();
  m.total_gbps = dbl();
  m.sender_cores_used = dbl();
  m.receiver_cores_used = dbl();
  m.sender_peak_core_util = dbl();
  m.receiver_peak_core_util = dbl();
  m.throughput_per_core_gbps = dbl();
  m.throughput_per_sender_core_gbps = dbl();
  m.throughput_per_receiver_core_gbps = dbl();
  for (std::size_t i = 0; i < kNumCpuCategories; ++i) {
    m.sender_cycles.add(static_cast<CpuCategory>(i), i64());
    m.receiver_cycles.add(static_cast<CpuCategory>(i), i64());
  }
  m.rx_copy_miss_rate = dbl();
  m.tx_copy_miss_rate = dbl();
  m.napi_to_copy_avg = i64();
  m.napi_to_copy_p99 = i64();
  m.mean_skb_bytes = dbl();
  m.skb_64kb_fraction = dbl();
  m.retransmits = u64();
  m.dup_acks_received = u64();
  m.acks_received = u64();
  m.wire_drops = u64();
  m.faults.random_drops = u64();
  m.faults.bursty_drops = u64();
  m.faults.flap_drops = u64();
  m.faults.corrupt_frames = u64();
  m.faults.flaps = u64();
  m.faults.ring_stall_drops = u64();
  m.faults.pool_denials = u64();
  m.faults.watchdog_trips = u64();
  m.rx_csum_drops = u64();
  m.invariant_checks = u64();
  m.invariant_violations = u64();
  m.sender_pageset_miss = dbl();
  m.receiver_pageset_miss = dbl();
  m.rpc_transactions = u64();
  m.rpc_transactions_per_sec = dbl();
  m.rpc_latency_p50 = i64();
  m.rpc_latency_p99 = i64();
  for (int i = length(); i > 0; --i) m.flows.push_back({i32(), i64(), dbl()});
  if (coin()) {
    for (int i = length() + 1; i > 0; --i) {
      m.per_host.push_back({i32(), dbl(), dbl(), i64(), dbl()});
    }
  }
  m.has_fabric = coin();
  if (m.has_fabric) {
    m.fabric = {u64(), u64(), u64(), u64(), i64()};
  }
  m.has_recovery = coin();
  if (m.has_recovery) {
    m.faults.host_crashes = u64();
    m.faults.crash_drops = u64();
    m.faults.blackhole_drops = u64();
    m.recovery = {i64(), dbl(), u64(), u64(), u64(),
                  u64(), u64(), u64(), u64(), i64()};
  }
  m.has_workload = coin();
  if (m.has_workload) {
    Metrics::WorkloadMetrics& wl = m.workload;
    wl.offered = u64();
    wl.completed = u64();
    wl.incomplete = u64();
    wl.offered_rps = dbl();
    wl.completed_rps = dbl();
    wl.latency_p50 = i64();
    wl.latency_p95 = i64();
    wl.latency_p99 = i64();
    wl.latency_p999 = i64();
    wl.queue_p50 = i64();
    wl.queue_p99 = i64();
    wl.first_byte_p99 = i64();
    wl.connect_p99 = i64();
    wl.leaf_p99 = i64();
    wl.fanout_leaves = u64();
    wl.slo_violations = u64();
    wl.conns_opened = u64();
    wl.conns_closed = u64();
    wl.redispatches = u64();
    wl.syns_sent = u64();
    wl.syn_retries = u64();
    wl.syns_received = u64();
    wl.listen_overflows = u64();
    wl.accepts = u64();
    wl.connect_failures = u64();
    wl.time_wait_entered = u64();
    wl.time_wait_reaped = u64();
    wl.time_wait_peak = u64();
    wl.socket_table_peak = u64();
  }
  return m;
}

TEST(MetricsJsonPropertyTest, RandomMetricsRoundTripExactly) {
  std::mt19937_64 rng(0x5eed);
  for (int trial = 0; trial < 300; ++trial) {
    const Metrics m = random_metrics(rng);
    const std::string json = metrics_to_json(m);
    const std::optional<Metrics> back = metrics_from_json(json);
    ASSERT_TRUE(back.has_value()) << json;
    EXPECT_EQ(metrics_to_json(*back), json);
    EXPECT_EQ(back->has_fabric, m.has_fabric);
    EXPECT_EQ(back->has_recovery, m.has_recovery);
    EXPECT_EQ(back->has_workload, m.has_workload);
    EXPECT_EQ(back->flows.size(), m.flows.size());
    EXPECT_EQ(back->per_host.size(), m.per_host.size());
  }
}

/// Re-emits `value` without the member stored at `skip`.
void emit_without(const JsonValue& value, const JsonValue* skip,
                  JsonWriter& w) {
  switch (value.kind()) {
    case JsonValue::Kind::object:
      w.begin_object();
      for (const auto& [name, member] : value.members()) {
        if (&member == skip) continue;
        w.key(name);
        emit_without(member, skip, w);
      }
      w.end_object();
      break;
    case JsonValue::Kind::array:
      w.begin_array();
      for (const JsonValue& item : value.items()) emit_without(item, skip, w);
      w.end_array();
      break;
    case JsonValue::Kind::number:
      w.value(value.as_i64());
      break;
    default:
      FAIL() << "metrics documents hold only objects, arrays and numbers";
  }
}

/// Every object member under `value`, by dotted path ("flows.0.gbps").
void collect_members(const JsonValue& value, const std::string& prefix,
                     std::vector<std::pair<std::string, const JsonValue*>>&
                         out) {
  for (const auto& [name, member] : value.members()) {
    const std::string path = prefix.empty() ? name : prefix + "." + name;
    out.emplace_back(path, &member);
    collect_members(member, path, out);
  }
  for (std::size_t i = 0; i < value.items().size(); ++i) {
    collect_members(value.items()[i], prefix + "." + std::to_string(i), out);
  }
}

TEST(MetricsJsonPropertyTest, DroppingAnyRequiredKeyIsRejected) {
  // Integer-valued, so re-emitting through as_i64 keeps every value.
  Metrics m;
  m.flows.push_back({1, 4096, 2.0});
  m.per_host.push_back({0, 1.0, 1.0, 4096, 2.0});
  m.has_fabric = m.has_recovery = m.has_workload = true;
  const std::optional<JsonValue> doc = JsonValue::parse(metrics_to_json(m));
  ASSERT_TRUE(doc.has_value());

  const std::set<std::string> optional = {
      "faults.host_crashes", "faults.crash_drops", "faults.blackhole_drops",
      "per_host",            "fabric",             "recovery",
      "workload"};
  std::vector<std::pair<std::string, const JsonValue*>> members;
  collect_members(*doc, "", members);
  ASSERT_GT(members.size(), 100u);
  for (const auto& [path, member] : members) {
    JsonWriter w;
    emit_without(*doc, member, w);
    EXPECT_EQ(metrics_from_json(w.str()).has_value(), optional.count(path) > 0)
        << "without " << path;
  }
}

TEST(MetricsJsonPropertyTest, EveryStrictPrefixIsRejected) {
  std::mt19937_64 rng(0xfeed);
  for (int trial = 0; trial < 4; ++trial) {
    const std::string json = metrics_to_json(random_metrics(rng));
    ASSERT_TRUE(metrics_from_json(json).has_value());
    for (std::size_t length = 0; length < json.size(); ++length) {
      ASSERT_FALSE(metrics_from_json(json.substr(0, length)).has_value())
          << "accepted a " << length << "-byte prefix of " << json;
    }
  }
}

TEST(ConfigHashPropertyTest, TraceCapacityLeavesHashUnchanged) {
  std::mt19937_64 rng(0xcafe);
  for (int trial = 0; trial < 100; ++trial) {
    ExperimentConfig config;
    config.seed = rng();
    config.traffic.flows = 1 + static_cast<int>(rng() % 16);
    config.stack.gro = (rng() & 1) != 0;
    config.topology.num_hosts = 2 + static_cast<int>(rng() % 8);
    const std::uint64_t hash = config_hash(config);
    config.obs.trace_capacity = 1 + rng() % (1u << 20);
    EXPECT_EQ(config_hash(config), hash)
        << "trace_capacity " << config.obs.trace_capacity;
  }
}

}  // namespace
}  // namespace hostsim
