#include "sweep/artifact.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/serialize.h"
#include "temp_dir.h"

namespace hostsim::sweep {
namespace {

namespace fs = std::filesystem;

CampaignResult small_result() {
  CampaignResult result;
  result.campaign = "artifact_test";
  result.description = "synthetic";
  result.cache_hits = 1;
  result.simulated = 1;

  Campaign campaign;
  campaign.name = "artifact_test";
  campaign.axes.push_back(Axis::flows({1, 8}));
  for (CampaignPoint& point : campaign.expand()) {
    PointResult pr;
    pr.config_hash = config_hash(point.config);
    pr.from_cache = point.index == 0;
    pr.metrics.total_gbps = 40.0;
    pr.point = std::move(point);
    result.points.push_back(std::move(pr));
  }
  return result;
}

TEST(ArtifactTest, JsonEmbedsIdentity) {
  const CampaignResult result = small_result();
  const std::string json = campaign_to_json(result, "v1.2-test");
  const auto doc = JsonValue::parse(json);
  ASSERT_TRUE(doc.has_value()) << "artifact must be valid JSON";
  EXPECT_EQ(doc->find("campaign")->as_string(), "artifact_test");
  EXPECT_EQ(doc->find("git")->as_string(), "v1.2-test");
  EXPECT_EQ(doc->find("schema")->as_u64(), kConfigSchemaVersion);
  EXPECT_EQ(doc->find("cache_hits")->as_u64(), 1u);

  const JsonValue* points = doc->find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->items().size(), 2u);
  const JsonValue& first = points->items()[0];
  EXPECT_EQ(first.find("label")->as_string(), "flows=1");
  EXPECT_EQ(first.find("config_hash")->as_string(),
            hash_hex(result.points[0].config_hash));
  EXPECT_EQ(first.find("seed")->as_u64(), result.points[0].point.config.seed);
  EXPECT_TRUE(first.find("from_cache")->as_bool());
  const JsonValue* metrics = first.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(metrics->find("total_gbps")->as_double(), 40.0);
}

TEST(ArtifactTest, CsvHasPreambleAndEscapedRows) {
  const std::string csv = campaign_to_csv(small_result(), "v1");
  std::istringstream lines(csv);
  std::string line;
  std::size_t comments = 0;
  std::size_t rows = 0;
  std::string header;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] == '#') {
      ++comments;
    } else if (header.empty()) {
      header = line;
    } else {
      ++rows;
      // Unquoted rows must have exactly as many fields as the header.
      EXPECT_EQ(std::count(line.begin(), line.end(), ','),
                std::count(header.begin(), header.end(), ','));
    }
  }
  EXPECT_GE(comments, 3u);
  EXPECT_EQ(rows, 2u);
  EXPECT_EQ(header.rfind("point,seed,config_hash,", 0), 0u);
  EXPECT_NE(csv.find("# campaign=artifact_test"), std::string::npos);
  EXPECT_NE(csv.find("# git=v1"), std::string::npos);
}

TEST(ArtifactTest, WriteCreatesBothFiles) {
  const fs::path dir = test_temp_dir("hostsim-artifacts");
  fs::remove_all(dir);
  const ArtifactPaths paths =
      write_campaign_artifacts(small_result(), dir.string());
  EXPECT_TRUE(fs::exists(paths.json));
  EXPECT_TRUE(fs::exists(paths.csv));

  std::ifstream in(paths.json);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(JsonValue::parse(buffer.str()).has_value());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hostsim::sweep
