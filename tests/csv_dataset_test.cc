// Tests for CSV dataset import/export.

#include "io/csv_dataset.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>

#include <gtest/gtest.h>

#include "stream/dataset.h"

namespace umicro::io {
namespace {

using stream::Dataset;
using stream::UncertainPoint;

TEST(CsvParseTest, HeaderWithValuesOnly) {
  const std::string text = "v0,v1\n1.5,2.5\n3.5,4.5\n";
  const auto loaded = ParseCsvDataset(text, CsvReadOptions{});
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->dataset.size(), 2u);
  EXPECT_EQ(loaded->dataset.dimensions(), 2u);
  EXPECT_DOUBLE_EQ(loaded->dataset[0].values[0], 1.5);
  EXPECT_DOUBLE_EQ(loaded->dataset[1].values[1], 4.5);
  // Row index becomes the timestamp when no timestamp column exists.
  EXPECT_DOUBLE_EQ(loaded->dataset[1].timestamp, 1.0);
  EXPECT_EQ(loaded->dataset[0].label, stream::kUnlabeled);
}

TEST(CsvParseTest, HeaderWithLabelAndTimestamp) {
  const std::string text =
      "v0,timestamp,label\n1.0,100.0,cat\n2.0,200.0,dog\n3.0,300.0,cat\n";
  const auto loaded = ParseCsvDataset(text, CsvReadOptions{});
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->dataset.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded->dataset[1].timestamp, 200.0);
  EXPECT_EQ(loaded->dataset[0].label, 0);  // cat
  EXPECT_EQ(loaded->dataset[1].label, 1);  // dog
  EXPECT_EQ(loaded->dataset[2].label, 0);  // cat again
  ASSERT_EQ(loaded->label_names.size(), 2u);
  EXPECT_EQ(loaded->label_names[0], "cat");
  EXPECT_EQ(loaded->label_names[1], "dog");
}

TEST(CsvParseTest, ErrorColumns) {
  const std::string text =
      "v0,v1,err_0,err_1,label\n1.0,2.0,0.1,0.2,a\n";
  const auto loaded = ParseCsvDataset(text, CsvReadOptions{});
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->dataset.size(), 1u);
  EXPECT_TRUE(loaded->dataset[0].has_errors());
  EXPECT_DOUBLE_EQ(loaded->dataset[0].errors[0], 0.1);
  EXPECT_DOUBLE_EQ(loaded->dataset[0].errors[1], 0.2);
}

TEST(CsvParseTest, HeaderlessLastColumnLabel) {
  const std::string text = "1.0,2.0,normal\n3.0,4.0,attack\n";
  CsvReadOptions options;
  options.has_header = false;
  const auto loaded = ParseCsvDataset(text, options);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->dataset.dimensions(), 2u);
  EXPECT_EQ(loaded->dataset[0].label, 0);
  EXPECT_EQ(loaded->dataset[1].label, 1);
}

TEST(CsvParseTest, HeaderlessAllValues) {
  const std::string text = "1.0,2.0\n3.0,4.0\n";
  CsvReadOptions options;
  options.has_header = false;
  options.last_column_is_label = false;
  const auto loaded = ParseCsvDataset(text, options);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->dataset.dimensions(), 2u);
  EXPECT_EQ(loaded->dataset[0].label, stream::kUnlabeled);
}

TEST(CsvParseTest, MaxRowsCap) {
  const std::string text = "v0\n1\n2\n3\n4\n5\n";
  CsvReadOptions options;
  options.max_rows = 3;
  const auto loaded = ParseCsvDataset(text, options);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->dataset.size(), 3u);
}

TEST(CsvParseTest, SkipsAndCountsRaggedRows) {
  const std::string text = "v0,v1\n1,2\n3\n4,5\n";
  const auto loaded = ParseCsvDataset(text, CsvReadOptions{});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->dataset.size(), 2u);
  EXPECT_EQ(loaded->stats.rows_loaded, 2u);
  EXPECT_EQ(loaded->stats.short_rows, 1u);
  EXPECT_EQ(loaded->stats.bad_numeric_rows, 0u);
}

TEST(CsvParseTest, SkipsAndCountsNonNumericRows) {
  const std::string text = "v0,v1\n1,abc\n3,4\n";
  const auto loaded = ParseCsvDataset(text, CsvReadOptions{});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->dataset.size(), 1u);
  EXPECT_EQ(loaded->stats.bad_numeric_rows, 1u);
  EXPECT_EQ(loaded->stats.rows_skipped(), 1u);
}

TEST(CsvParseTest, AllRowsMalformedIsError) {
  const std::string text = "v0,v1\n1,abc\n";
  EXPECT_FALSE(ParseCsvDataset(text, CsvReadOptions{}).has_value());
}

TEST(CsvParseTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParseCsvDataset("", CsvReadOptions{}).has_value());
  EXPECT_FALSE(ParseCsvDataset("v0,v1\n", CsvReadOptions{}).has_value());
}

TEST(CsvParseTest, RejectsMismatchedErrorColumnCount) {
  const std::string text = "v0,v1,err_0\n1,2,0.1\n";
  EXPECT_FALSE(ParseCsvDataset(text, CsvReadOptions{}).has_value());
}

TEST(CsvRoundTripTest, DatasetToCsvAndBack) {
  Dataset dataset(2);
  dataset.Add(UncertainPoint({1.25, -2.5}, {0.1, 0.3}, 5.0, 1));
  dataset.Add(UncertainPoint({0.0, 1e-7}, {0.0, 0.25}, 6.0, 0));
  const std::string text = DatasetToCsv(dataset);

  const auto loaded = ParseCsvDataset(text, CsvReadOptions{});
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->dataset.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(loaded->dataset[i].values, dataset[i].values);
    EXPECT_EQ(loaded->dataset[i].errors, dataset[i].errors);
    EXPECT_DOUBLE_EQ(loaded->dataset[i].timestamp, dataset[i].timestamp);
  }
  // Labels round-trip through the string dictionary: "1" then "0".
  EXPECT_EQ(loaded->label_names[loaded->dataset[0].label], "1");
  EXPECT_EQ(loaded->label_names[loaded->dataset[1].label], "0");
}

TEST(CsvRoundTripTest, NoErrorColumnsWhenDeterministic) {
  Dataset dataset(1);
  dataset.Add(UncertainPoint({1.0}, 0.0, 0));
  const std::string text = DatasetToCsv(dataset);
  EXPECT_EQ(text.find("err_"), std::string::npos);
}

TEST(CsvFileTest, WriteAndReadBack) {
  Dataset dataset(2);
  dataset.Add(UncertainPoint({3.0, 4.0}, 0.0, 2));
  const std::string path = testing::TempDir() + "/csv_dataset_test.csv";
  ASSERT_TRUE(WriteCsvDataset(dataset, path));
  const auto loaded = ReadCsvDataset(path, CsvReadOptions{});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->dataset.size(), 1u);
  EXPECT_EQ(loaded->dataset[0].values, dataset[0].values);
  std::remove(path.c_str());
}

/// The writer prints subnormals with %.17g; strtod flags them with
/// ERANGE, and the reader must still load them, bit for bit.
TEST(CsvFileTest, SubnormalCellsRoundTripBitForBit) {
  const double smallest = std::numeric_limits<double>::denorm_min();
  const double largest_subnormal =
      std::numeric_limits<double>::min() - smallest;
  Dataset dataset(2);
  dataset.Add(UncertainPoint({smallest, -largest_subnormal},
                             {largest_subnormal, smallest}, 1.0, 0));
  const std::string path = testing::TempDir() + "/csv_subnormal_test.csv";
  ASSERT_TRUE(WriteCsvDataset(dataset, path));
  const auto loaded = ReadCsvDataset(path, CsvReadOptions{});
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->dataset.size(), 1u);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->dataset[0].values[j]),
              std::bit_cast<std::uint64_t>(dataset[0].values[j]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->dataset[0].errors[j]),
              std::bit_cast<std::uint64_t>(dataset[0].errors[j]));
  }
}

TEST(CsvFileTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(
      ReadCsvDataset("/nonexistent/no.csv", CsvReadOptions{}).has_value());
}

}  // namespace
}  // namespace umicro::io
