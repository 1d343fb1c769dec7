// Tests for the MicroCluster value type (singleton construction). How
// UMicro accumulates, merges and decays labels is asserted at the
// algorithm level, in umicro_test and decay_test.

#include "core/microcluster.h"

#include <gtest/gtest.h>

namespace umicro::core {
namespace {

using stream::UncertainPoint;

TEST(MicroClusterTest, SingletonConstruction) {
  UncertainPoint point({1.0, 2.0}, {0.1, 0.2}, 5.0, 3);
  MicroCluster cluster(42, point);
  EXPECT_EQ(cluster.id, 42u);
  EXPECT_DOUBLE_EQ(cluster.creation_time, 5.0);
  EXPECT_DOUBLE_EQ(cluster.ecf.weight(), 1.0);
  ASSERT_EQ(cluster.labels.size(), 1u);
  EXPECT_DOUBLE_EQ(cluster.labels.at(3), 1.0);
}

TEST(MicroClusterTest, UnlabeledPointsLeaveHistogramEmpty) {
  UncertainPoint point({1.0}, 0.0);
  MicroCluster cluster(1, point);
  EXPECT_TRUE(cluster.labels.empty());
  EXPECT_DOUBLE_EQ(cluster.ecf.weight(), 1.0);
}

TEST(MicroClusterTest, WeightedSingletonScalesHistogram) {
  MicroCluster cluster(1, UncertainPoint({0.0}, 0.0, 0), 0.5);
  EXPECT_DOUBLE_EQ(cluster.labels.at(0), 0.5);
  EXPECT_DOUBLE_EQ(cluster.ecf.weight(), 0.5);
}

}  // namespace
}  // namespace umicro::core
