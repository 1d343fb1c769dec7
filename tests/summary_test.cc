// Tests for the cluster summary printer.

#include "core/summary.h"

#include <gtest/gtest.h>

#include "stream/point.h"

namespace umicro::core {
namespace {

std::vector<MicroCluster> MakeClusters() {
  std::vector<MicroCluster> clusters;
  // Heavy cluster of label 2 at (1, 2): ten coincident points, folded
  // in as one weight-10 singleton.
  clusters.emplace_back(
      7, stream::UncertainPoint({1.0, 2.0}, {0.1, 0.1}, 0.0, 2), 10.0);
  // Light unlabeled singleton.
  clusters.emplace_back(8, stream::UncertainPoint({5.0, -5.0}, 10.0));
  return clusters;
}

TEST(SummaryTest, ContainsHeaderAndRows) {
  const std::string text = SummarizeClusters(MakeClusters());
  EXPECT_NE(text.find("id"), std::string::npos);
  EXPECT_NE(text.find("weight"), std::string::npos);
  EXPECT_NE(text.find("centroid"), std::string::npos);
  EXPECT_NE(text.find("10.0"), std::string::npos);  // heavy weight
  EXPECT_NE(text.find("(1, 2)"), std::string::npos);
}

TEST(SummaryTest, HeaviestFirstAndLabelShown) {
  const std::string text = SummarizeClusters(MakeClusters());
  // Cluster 7 (weight 10) listed before cluster 8 (weight 1).
  EXPECT_LT(text.find("     7"), text.find("     8"));
  EXPECT_NE(text.find(" 2  "), std::string::npos);  // dominant label 2
}

TEST(SummaryTest, TopLimitsOutput) {
  SummaryOptions options;
  options.top = 1;
  const std::string text = SummarizeClusters(MakeClusters(), options);
  EXPECT_NE(text.find("and 1 more clusters"), std::string::npos);
  EXPECT_EQ(text.find("     8 "), std::string::npos);
}

TEST(SummaryTest, DimensionTruncation) {
  std::vector<MicroCluster> clusters;
  clusters.emplace_back(
      1, stream::UncertainPoint(std::vector<double>(12, 3.0), 0.0));
  SummaryOptions options;
  options.max_dims = 4;
  const std::string text = SummarizeClusters(clusters, options);
  EXPECT_NE(text.find(", ...)"), std::string::npos);
}

TEST(SummaryTest, EmptyInputJustHeader) {
  const std::string text = SummarizeClusters({});
  EXPECT_NE(text.find("id"), std::string::npos);
  EXPECT_EQ(text.find('('), std::string::npos);
}

}  // namespace
}  // namespace umicro::core
