#include "obs/export.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "core/serialize.h"
#include "obs/observer.h"
#include "temp_dir.h"

namespace hostsim::obs {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(CsvWriterTest, EscapesPerRfc4180) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvEscapeTest, PlainFieldsPassThrough) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("42.5"), "42.5");
  EXPECT_EQ(CsvWriter::escape(""), "");
  EXPECT_EQ(CsvWriter::escape("with space"), "with space");
}

TEST(CsvEscapeTest, QuotesFieldsWithSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(CsvWriter::escape("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(CsvWriter::escape("\""), "\"\"\"\"");
}

TEST(CsvWriterTest, RowsAreCommaJoined) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.field(std::string_view("name")).field(std::int64_t{-3});
  csv.field(std::uint64_t{7}).field(0.5);
  csv.end_row();
  csv.field(std::string_view("next"));
  csv.end_row();
  EXPECT_EQ(out.str(), "name,-3,7,0.5\nnext\n");
}

TEST(PerfettoExportTest, UnitsAreTraceEventMicroseconds) {
  SpanTracer spans(1, 1.0, 16);
  const std::int32_t id = spans.maybe_start(0, 2, 1448, 1448, 1'500);
  ASSERT_GE(id, 0);
  spans.stamp(id, Stage::copy, 4'750);
  spans.complete(id);

  std::ostringstream out;
  write_perfetto_json(out, spans.spans(), Observer::Series{}, {}, {});
  const std::string text = out.str();
  // 1500 ns -> ts 1.500 us; 3250 ns -> dur 3.250 us (fixed 3 decimals).
  EXPECT_NE(text.find("\"ts\":1.500"), std::string::npos) << text;
  EXPECT_NE(text.find("\"dur\":3.250"), std::string::npos) << text;
  EXPECT_NE(text.find("\"args\":{\"seq\":1448,\"len\":1448}"),
            std::string::npos);
}

// The acceptance check of the obs layer: an incast cluster run with
// spans + sampler + out_dir produces a Perfetto JSON that parses and
// contains >= 4 distinct pipeline-stage slice names and >= 3 counter
// tracks (cwnd, switch queue bytes, cycle-category share), plus a
// rectangular time-series CSV.  CI re-runs the same validation on a
// real hostsim_cli run (obs-smoke).
class ObsArtifactsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new fs::path(test_temp_dir("hostsim-obs-export"));
    fs::remove_all(*dir_);

    ExperimentConfig config;
    config.topology.num_hosts = 4;
    config.topology.use_switch = true;
    config.traffic.pattern = Pattern::incast;
    config.traffic.flows = 6;
    config.warmup = 2 * kMillisecond;
    config.duration = 5 * kMillisecond;
    config.obs.trace_capacity = 1024;  // legacy events ride along
    config.obs.span_rate = 1.0;
    config.obs.sample_period = 100 * kMicrosecond;
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

fs::path* ObsArtifactsTest::dir_ = nullptr;

TEST_F(ObsArtifactsTest, PerfettoJsonParsesWithSpansCountersAndEvents) {
  const std::string text = slurp(*dir_ / "obs.trace.json");
  const auto document = JsonValue::parse(text);
  ASSERT_TRUE(document.has_value()) << "trace.json does not parse";
  ASSERT_TRUE(document->is_object());
  const JsonValue* events = document->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->items().empty());

  std::set<std::string> slice_names;
  std::set<std::string> counter_names;
  std::set<std::string> instant_names;
  for (const JsonValue& event : events->items()) {
    const JsonValue* ph = event.find("ph");
    const JsonValue* name = event.find("name");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(name, nullptr);
    if (ph->as_string() == "X") slice_names.insert(name->as_string());
    if (ph->as_string() == "C") counter_names.insert(name->as_string());
    if (ph->as_string() == "i") instant_names.insert(name->as_string());
  }

  // >= 4 distinct pipeline stages rendered as duration slices.
  EXPECT_GE(slice_names.size(), 4u);
  for (const char* stage : {"nic_dma", "gro", "tcpip", "copy"}) {
    EXPECT_TRUE(slice_names.count(stage)) << "missing slice " << stage;
  }

  // >= 3 counter tracks: cwnd, switch queue depth, cycle-category share.
  EXPECT_GE(counter_names.size(), 3u);
  EXPECT_TRUE(counter_names.count("flow0.cwnd_bytes"));
  EXPECT_TRUE(counter_names.count("switch.queued_bytes"));
  EXPECT_TRUE(counter_names.count("host0.cyc.copy"));

  // Legacy Tracer records become instant events.
  EXPECT_TRUE(instant_names.count("data_copy"));
}

TEST_F(ObsArtifactsTest, TimeseriesCsvIsRectangular) {
  const std::string text = slurp(*dir_ / "obs.timeseries.csv");
  std::istringstream lines(text);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header.rfind("time_ns,", 0), 0u);
  const std::size_t columns =
      static_cast<std::size_t>(std::count(header.begin(), header.end(), ',')) +
      1;
  EXPECT_GE(columns, 4u);  // time + >= 3 instruments
  EXPECT_NE(header.find("flow0.cwnd_bytes"), std::string::npos);
  EXPECT_NE(header.find("switch.queued_bytes"), std::string::npos);

  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    ++rows;
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(line.begin(), line.end(), ',')) +
                  1,
              columns)
        << "ragged row: " << line;
  }
  // 7 ms at a 100 us period: the sampler ticked throughout the run.
  EXPECT_GE(rows, 60u);
}

}  // namespace
}  // namespace hostsim::obs
