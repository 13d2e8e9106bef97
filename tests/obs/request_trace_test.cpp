// Request-scoped distributed tracing, end to end: a chaos run (host
// crash + resilient clients, every request sampled) must export request
// spans whose trace context propagated through retries, reconnects, and
// switch hops — and a structurally valid Perfetto trace (paired flow
// arrows, sane timestamps, named process tracks).  A fan-out open-loop
// run must record leaf attempts as sibling spans under one root.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/serialize.h"
#include "temp_dir.h"

namespace hostsim {
namespace {

namespace fs = std::filesystem;

constexpr const char* kNoParent = "0x0000000000000000";

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct SpanRow {
  std::string trace;
  std::string span;
  std::string parent;
  std::string kind;
  std::string cls;
  std::int64_t host = 0;
  std::int64_t flow = -1;
  std::int64_t attempt = 0;
  std::int64_t start = 0;
  std::int64_t end = -1;
  bool ok = true;
};

std::vector<SpanRow> parse_spans_jsonl(const std::string& text) {
  std::vector<SpanRow> rows;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    const auto doc = JsonValue::parse(line);
    EXPECT_TRUE(doc.has_value() && doc->is_object())
        << "malformed JSONL line: " << line;
    if (!doc.has_value()) continue;
    SpanRow row;
    row.trace = doc->find("trace")->as_string();
    row.span = doc->find("span")->as_string();
    row.parent = doc->find("parent")->as_string();
    row.kind = doc->find("kind")->as_string();
    row.cls = doc->find("cls")->as_string();
    row.host = doc->find("host")->as_i64();
    row.flow = doc->find("flow")->as_i64();
    row.attempt = doc->find("attempt")->as_i64();
    row.start = doc->find("start_ns")->as_i64();
    row.end = doc->find("end_ns")->as_i64();
    row.ok = doc->find("ok")->as_bool();
    rows.push_back(std::move(row));
  }
  return rows;
}

/// The scaled-down chaos_recovery point (tests/core/resilience_test.cpp)
/// with full request tracing: 4 resilient clients fan in through the
/// switch to the server on host 4; host 0 crashes at t=8ms for 2ms.
class ChaosTraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new fs::path(test_temp_dir("hostsim-request-trace"));
    fs::remove_all(*dir_);

    ExperimentConfig config;
    config.traffic.pattern = Pattern::rpc_incast;
    config.traffic.flows = 4;
    config.traffic.rpc_size = 16 * kKiB;
    config.topology.num_hosts = 5;
    config.topology.use_switch = true;
    config.topology.switch_buffer = 256 * kKiB;
    config.topology.switch_ecn_bytes = 64 * kKiB;
    config.warmup = 4 * kMillisecond;
    config.duration = 10 * kMillisecond;
    config.stack.max_consecutive_rtos = 4;
    config.traffic.resilience.enabled = true;
    config.traffic.resilience.deadline = 1 * kMillisecond;
    config.traffic.resilience.max_retries = 8;
    config.traffic.resilience.backoff_base = 250 * kMicrosecond;
    config.traffic.resilience.backoff_cap = 2 * kMillisecond;
    config.traffic.resilience.breaker_threshold = 4;
    config.traffic.resilience.breaker_cooldown = 2 * kMillisecond;
    config.faults.host_crashes.push_back(
        {8 * kMillisecond, 2 * kMillisecond, 0});
    config.obs.trace_rate = 1.0;
    config.obs.out_dir = dir_->string();
    run_experiment(config);
  }

  static void TearDownTestSuite() {
    fs::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  static fs::path* dir_;
};

fs::path* ChaosTraceTest::dir_ = nullptr;

TEST_F(ChaosTraceTest, ContextPropagatesThroughRetriesHopsAndService) {
  const auto rows = parse_spans_jsonl(slurp(*dir_ / "obs.spans.jsonl"));
  ASSERT_FALSE(rows.empty());

  std::set<std::string> kinds;
  std::map<std::string, std::string> span_trace;  // span id -> trace id
  for (const SpanRow& row : rows) {
    kinds.insert(row.kind);
    EXPECT_NE(row.trace, kNoParent) << "unjoined span survived the join";
    span_trace.emplace(row.span, row.trace);
  }
  // The full lifecycle made it into the log: roots, attempts, transmits,
  // switch hops, server service legs — and, because the crash forced
  // failures, reconnects and backoffs under the same roots.
  for (const char* kind :
       {"request", "attempt", "xmit", "hop", "service", "connect",
        "backoff"}) {
    EXPECT_TRUE(kinds.count(kind)) << "missing span kind " << kind;
  }

  // Every child's parent exists and carries the same trace id: the
  // context rode the request across hosts (service spans recorded on
  // host 4, hops on the fabric pseudo-host) and across retries.
  std::size_t retries = 0;
  std::size_t cross_host = 0;
  for (const SpanRow& row : rows) {
    if (row.kind == "request") {
      EXPECT_EQ(row.parent, kNoParent);
      EXPECT_EQ(row.cls, "rpc_resilient");
      continue;
    }
    const auto it = span_trace.find(row.parent);
    ASSERT_NE(it, span_trace.end())
        << row.kind << " span parent " << row.parent << " not in the log";
    EXPECT_EQ(it->second, row.trace)
        << row.kind << " span joined a different trace than its parent";
    if (row.kind == "attempt" && row.attempt > 0) ++retries;
    if (row.kind == "service") {
      EXPECT_EQ(row.host, 4);
      ++cross_host;
    }
    if (row.kind == "hop") {
      EXPECT_EQ(row.host, -1);
      ++cross_host;
    }
  }
  EXPECT_GT(retries, 0u) << "the crash produced no traced retry attempts";
  EXPECT_GT(cross_host, 0u);

  // The crash left failure evidence in the spans themselves.
  std::size_t failed_attempts = 0;
  for (const SpanRow& row : rows) {
    if (row.kind == "attempt" && !row.ok) ++failed_attempts;
  }
  EXPECT_GT(failed_attempts, 0u);
}

TEST_F(ChaosTraceTest, PerfettoExportIsStructurallyValid) {
  const auto document = JsonValue::parse(slurp(*dir_ / "obs.trace.json"));
  ASSERT_TRUE(document.has_value()) << "trace.json does not parse";
  const JsonValue* events = document->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::map<std::string, std::vector<double>> arrow_starts;
  std::map<std::string, std::vector<double>> arrow_finishes;
  std::map<std::int64_t, std::string> process_names;
  std::size_t slices = 0;
  for (const JsonValue& event : events->items()) {
    const JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    const std::string& phase = ph->as_string();
    if (phase == "M") {
      const JsonValue* name = event.find("name");
      ASSERT_NE(name, nullptr);
      if (name->as_string() == "process_name") {
        process_names[event.find("pid")->as_i64()] =
            event.find("args")->find("name")->as_string();
      }
      continue;
    }
    if (phase == "X") {
      ++slices;
      const JsonValue* ts = event.find("ts");
      const JsonValue* dur = event.find("dur");
      ASSERT_NE(ts, nullptr);
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(ts->as_double(), 0.0);
      EXPECT_GE(dur->as_double(), 0.0);
      ASSERT_NE(event.find("pid"), nullptr);
      continue;
    }
    if (phase == "s" || phase == "f") {
      const JsonValue* id = event.find("id");
      const JsonValue* ts = event.find("ts");
      ASSERT_NE(id, nullptr);
      ASSERT_NE(ts, nullptr);
      auto& bucket = phase == "s" ? arrow_starts : arrow_finishes;
      bucket[id->as_string()].push_back(ts->as_double());
    }
  }
  EXPECT_GT(slices, 0u);

  // Track naming: the fabric renders as pid -1 "switch"; hosts by index.
  ASSERT_TRUE(process_names.count(-1));
  EXPECT_EQ(process_names.at(-1), "switch");
  ASSERT_TRUE(process_names.count(0));
  EXPECT_EQ(process_names.at(0), "host0");
  ASSERT_TRUE(process_names.count(4));
  EXPECT_EQ(process_names.at(4), "host4");

  // Flow arrows pair exactly — every start has its finish and neither
  // side dangles — and each pair is causally ordered (start <= finish).
  EXPECT_FALSE(arrow_starts.empty());
  EXPECT_EQ(arrow_starts.size(), arrow_finishes.size());
  for (const auto& [id, starts] : arrow_starts) {
    const auto it = arrow_finishes.find(id);
    ASSERT_NE(it, arrow_finishes.end()) << "unpaired flow arrow " << id;
    ASSERT_EQ(starts.size(), 1u) << "duplicate flow-arrow start " << id;
    ASSERT_EQ(it->second.size(), 1u) << "duplicate flow-arrow finish " << id;
    EXPECT_LE(starts[0], it->second[0])
        << "flow arrow " << id << " points backward in time";
  }
}

// Fan-out children are sibling spans: an open-loop request with
// fan_out=3 records one root and >= 3 leaf attempts directly under it.
TEST(FanOutTraceTest, LeavesAreSiblingsUnderOneRoot) {
  const fs::path dir = test_temp_dir("hostsim-fanout-trace");
  fs::remove_all(dir);

  ExperimentConfig config;
  config.topology.num_hosts = 4;
  config.topology.use_switch = true;
  config.traffic.pattern = Pattern::open_loop;
  config.traffic.flows = 6;
  config.traffic.workload.enabled = true;
  config.traffic.workload.rate_rps = 20'000;
  config.traffic.workload.sizes = SizeDist::fixed;
  config.traffic.workload.size_min = 4 * kKiB;
  config.traffic.workload.size_max = 4 * kKiB;
  config.traffic.workload.fan_out = 3;
  config.warmup = 1 * kMillisecond;
  config.duration = 4 * kMillisecond;
  config.obs.trace_rate = 1.0;
  config.obs.out_dir = dir.string();
  run_experiment(config);

  const auto rows = parse_spans_jsonl(slurp(dir / "obs.spans.jsonl"));
  fs::remove_all(dir);
  ASSERT_FALSE(rows.empty());

  // root span id -> leaf attempts directly under it.
  std::map<std::string, std::size_t> leaves_under_root;
  std::set<std::string> roots;
  for (const SpanRow& row : rows) {
    if (row.kind == "request") {
      EXPECT_EQ(row.cls, "open_loop");
      roots.insert(row.span);
    }
  }
  for (const SpanRow& row : rows) {
    if (row.kind == "attempt" && roots.count(row.parent)) {
      ++leaves_under_root[row.parent];
    }
  }
  std::size_t fanned_out = 0;
  for (const auto& [root, leaves] : leaves_under_root) {
    if (leaves >= 3) ++fanned_out;
  }
  EXPECT_GT(fanned_out, 0u)
      << "no request recorded its 3 fan-out leaves as sibling spans";

  // Service spans joined from the backend hosts (1..3).
  bool backend_service = false;
  for (const SpanRow& row : rows) {
    if (row.kind == "service" && row.host >= 1 && row.host <= 3) {
      backend_service = true;
      break;
    }
  }
  EXPECT_TRUE(backend_service);
}

}  // namespace
}  // namespace hostsim
