#include "sweep/artifact.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/report.h"
#include "core/serialize.h"
#include "obs/export.h"
#include "sim/contract.h"

namespace hostsim::sweep {

namespace fs = std::filesystem;

std::string git_describe() {
  FILE* pipe =
      ::popen("git describe --always --dirty --tags 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buffer[128] = {};
  std::string out;
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) out += buffer;
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  if (status != 0 || out.empty()) return "unknown";
  return out;
}

std::string campaign_to_json(const CampaignResult& result,
                             const std::string& git_version) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(static_cast<std::uint64_t>(kConfigSchemaVersion));
  w.key("campaign").value(result.campaign);
  w.key("description").value(result.description);
  w.key("git").value(git_version);
  w.key("cache_hits").value(static_cast<std::uint64_t>(result.cache_hits));
  w.key("simulated").value(static_cast<std::uint64_t>(result.simulated));
  std::string doc = w.str();
  doc += ",\"points\":[";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const PointResult& point = result.points[i];
    if (i > 0) doc += ',';
    JsonWriter p;
    p.begin_object();
    p.key("label").value(point.point.label());
    p.key("config_hash").value(hash_hex(point.config_hash));
    p.key("seed").value(point.point.config.seed);
    p.key("from_cache").value(point.from_cache);
    doc += p.str();
    doc += ",\"metrics\":";
    doc += metrics_to_json(point.metrics);
    doc += '}';
  }
  doc += "]}";
  return doc;
}

std::string campaign_to_csv(const CampaignResult& result,
                            const std::string& git_version) {
  std::string csv;
  csv += "# hostsim campaign artifact\n";
  csv += "# campaign=" + result.campaign + "\n";
  csv += "# git=" + git_version + "\n";
  csv += "# schema=" + std::to_string(kConfigSchemaVersion) + "\n";
  csv += "# points=" + std::to_string(result.points.size()) +
         " cache_hits=" + std::to_string(result.cache_hits) +
         " simulated=" + std::to_string(result.simulated) + "\n";
  csv += "point,seed,config_hash," + metrics_csv_header() + "\n";
  for (const PointResult& point : result.points) {
    csv += obs::CsvWriter::escape(point.point.label()) + "," +
           std::to_string(point.point.config.seed) + "," +
           hash_hex(point.config_hash) + "," +
           metrics_csv_row(point.metrics) + "\n";
  }
  return csv;
}

ArtifactPaths write_campaign_artifacts(const CampaignResult& result,
                                       const std::string& out_dir) {
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  require(!ec, "cannot create artifact directory");
  const std::string git_version = git_describe();
  ArtifactPaths paths;
  paths.json = (fs::path(out_dir) / (result.campaign + ".json")).string();
  paths.csv = (fs::path(out_dir) / (result.campaign + ".csv")).string();
  {
    std::ofstream out(paths.json, std::ios::trunc);
    out << campaign_to_json(result, git_version) << '\n';
    require(out.good(), "cannot write campaign JSON artifact");
  }
  {
    std::ofstream out(paths.csv, std::ios::trunc);
    out << campaign_to_csv(result, git_version);
    require(out.good(), "cannot write campaign CSV artifact");
  }
  return paths;
}

}  // namespace hostsim::sweep
