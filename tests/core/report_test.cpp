#include "core/report.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/serialize.h"

namespace hostsim {
namespace {

TEST(TableTest, AlignsColumnsAndPrintsRule) {
  Table table({"a", "long-header"});
  table.add_row({"value-longer-than-header", "x"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("long-header"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  // Three lines: header, rule, row.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(42.0, 0), "42");
  EXPECT_EQ(Table::percent(0.4935), "49.4%");
}

TEST(BreakdownTest, HeadersMatchTaxonomy) {
  const auto headers = breakdown_headers();
  ASSERT_EQ(headers.size(), kNumCpuCategories);
  EXPECT_EQ(headers.front(), "copy");
  EXPECT_EQ(headers.back(), "etc");
}

TEST(BreakdownTest, CellsAreFractionsOfTotal) {
  CycleAccount account;
  account.add(CpuCategory::data_copy, 75);
  account.add(CpuCategory::tcpip, 25);
  const auto cells = breakdown_cells(account);
  ASSERT_EQ(cells.size(), kNumCpuCategories);
  EXPECT_EQ(cells[0], "75.0%");
  EXPECT_EQ(cells[1], "25.0%");
  EXPECT_EQ(cells[7], "0.0%");
}

TEST(CsvTest, HeaderAndRowHaveSameFieldCount) {
  const std::string header = metrics_csv_header();
  const std::string row = metrics_csv_row(Metrics{});
  EXPECT_EQ(std::count(header.begin(), header.end(), ','),
            std::count(row.begin(), row.end(), ','));
}

TEST(CsvTest, CommentIdentifiesTheRun) {
  ExperimentConfig config;
  config.seed = 77;
  const std::string comment = metrics_csv_comment(config);
  EXPECT_EQ(comment.front(), '#');
  EXPECT_NE(comment.find("seed=77"), std::string::npos);
  EXPECT_NE(comment.find(hash_hex(config_hash(config))), std::string::npos);
  EXPECT_NE(comment.find("pattern="), std::string::npos);
  // A single line (caller appends the newline when prefixing a CSV).
  EXPECT_EQ(std::count(comment.begin(), comment.end(), '\n'), 0);
}

}  // namespace
}  // namespace hostsim
