// Tests for the cluster summary printer.

#include "core/summary.h"

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/microcluster.h"
#include "core/snapshot.h"
#include "stream/point.h"

namespace umicro::core {
namespace {

/// `clusters` in record form.
LabeledFrame ToFrame(const std::vector<MicroCluster>& clusters) {
  const std::size_t dims =
      clusters.empty() ? 0 : clusters.front().ecf.dimensions();
  LabeledFrame frame{Snapshot(0.0, dims, clusters.size()), {}};
  for (const MicroCluster& cluster : clusters) {
    frame.frame.Append(cluster.id, cluster.creation_time,
                       cluster.ecf.weight(), cluster.ecf.last_update_time(),
                       cluster.ecf.cf1().data(), cluster.ecf.cf2().data(),
                       cluster.ecf.ef2().data());
    frame.labels.push_back(cluster.labels);
  }
  return frame;
}

LabeledFrame MakeClusters() {
  std::vector<MicroCluster> clusters;
  // Heavy cluster of label 2 at (1, 2): ten coincident points, folded
  // in as one weight-10 singleton.
  clusters.emplace_back(
      7, stream::UncertainPoint({1.0, 2.0}, {0.1, 0.1}, 0.0, 2), 10.0);
  // Light unlabeled singleton.
  clusters.emplace_back(8, stream::UncertainPoint({5.0, -5.0}, 10.0));
  return ToFrame(clusters);
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
  const std::string text = SummarizeClusters(ToFrame(clusters), options);
  EXPECT_NE(text.find(", ...)"), std::string::npos);
}

TEST(SummaryTest, TopCutsWeightTiesByAscendingId) {
  // Three unit-weight singletons (the usual tie without decay), listed
  // out of id order: the two smallest ids are shown, in id order.
  std::vector<MicroCluster> clusters;
  for (const std::uint64_t id : {30u, 10u, 20u}) {
    clusters.emplace_back(id, stream::UncertainPoint({1.0, 1.0}, 0.0));
  }
  SummaryOptions options;
  options.top = 2;
  const std::string text = SummarizeClusters(ToFrame(clusters), options);
  ASSERT_NE(text.find("    10 "), std::string::npos);
  ASSERT_NE(text.find("    20 "), std::string::npos);
  EXPECT_LT(text.find("    10 "), text.find("    20 "));
  EXPECT_EQ(text.find("    30 "), std::string::npos);
  EXPECT_NE(text.find("and 1 more clusters"), std::string::npos);
}

TEST(SummaryTest, EmptyInputJustHeader) {
  const std::string text = SummarizeClusters({});
  EXPECT_NE(text.find("id"), std::string::npos);
  EXPECT_EQ(text.find('('), std::string::npos);
}

}  // namespace
}  // namespace umicro::core
