#include "sweep/cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/serialize.h"
#include "temp_dir.h"

namespace hostsim::sweep {
namespace {

namespace fs = std::filesystem;

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_temp_dir("hostsim-cache-" +
                         std::string(::testing::UnitTest::GetInstance()
                                         ->current_test_info()
                                         ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static Metrics sample_metrics() {
    Metrics m;
    m.window = 25 * kMillisecond;
    m.app_bytes = 4096;
    m.total_gbps = 13.37;
    m.sender_cycles.add(CpuCategory::data_copy, 42);
    m.flows.push_back({0, 4096, 13.37});
    return m;
  }

  fs::path dir_;
};

TEST_F(ResultCacheTest, MissOnEmptyCache) {
  const ResultCache cache(dir_.string());
  EXPECT_FALSE(cache.load(ExperimentConfig{}).has_value());
}

TEST_F(ResultCacheTest, StoreThenLoadRoundTrips) {
  const ResultCache cache(dir_.string());
  const ExperimentConfig config;
  const Metrics stored = sample_metrics();
  cache.store(config, stored);
  ASSERT_TRUE(fs::exists(cache.entry_path(config)));

  const std::optional<Metrics> loaded = cache.load(config);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(metrics_to_json(*loaded), metrics_to_json(stored));
}

TEST_F(ResultCacheTest, DistinctConfigsUseDistinctEntries) {
  const ResultCache cache(dir_.string());
  ExperimentConfig a;
  ExperimentConfig b;
  b.seed = 2;
  EXPECT_NE(cache.entry_path(a), cache.entry_path(b));
  cache.store(a, sample_metrics());
  EXPECT_TRUE(cache.load(a).has_value());
  EXPECT_FALSE(cache.load(b).has_value());
}

TEST_F(ResultCacheTest, TracedConfigsAreNotCacheable) {
  ExperimentConfig config;
  EXPECT_TRUE(ResultCache::cacheable(config));
  config.obs.trace_capacity = 1024;
  EXPECT_FALSE(ResultCache::cacheable(config));
}

TEST_F(ResultCacheTest, CorruptEntryIsTreatedAsMiss) {
  const ResultCache cache(dir_.string());
  const ExperimentConfig config;
  cache.store(config, sample_metrics());

  std::ofstream(cache.entry_path(config), std::ios::trunc) << "{not json";
  EXPECT_FALSE(cache.load(config).has_value());
}

TEST_F(ResultCacheTest, EntryWithForeignHashIsRejected) {
  const ResultCache cache(dir_.string());
  ExperimentConfig a;
  ExperimentConfig b;
  b.seed = 2;
  cache.store(a, sample_metrics());

  // Simulate a mis-filed entry: config A's document at config B's path.
  // The embedded config_hash no longer matches, so load() must miss
  // rather than serve another configuration's result.
  fs::copy_file(cache.entry_path(a), cache.entry_path(b));
  EXPECT_FALSE(cache.load(b).has_value());
}

TEST_F(ResultCacheTest, ClearRemovesAllEntries) {
  const ResultCache cache(dir_.string());
  ExperimentConfig a;
  ExperimentConfig b;
  b.seed = 2;
  cache.store(a, sample_metrics());
  cache.store(b, sample_metrics());
  EXPECT_EQ(cache.clear(), 2u);
  EXPECT_FALSE(cache.load(a).has_value());
  EXPECT_FALSE(cache.load(b).has_value());
}

}  // namespace
}  // namespace hostsim::sweep
