// Tests for the CluStream baseline.

#include "baseline/clustream.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "eval/purity.h"
#include "stream/dataset.h"
#include "util/math_utils.h"
#include "util/random.h"

namespace umicro::baseline {
namespace {

using stream::Dataset;
using stream::UncertainPoint;

Dataset MakeBlobs(std::size_t per_blob, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<std::vector<double>> centers = {
      {0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  Dataset dataset(2);
  double ts = 0.0;
  for (std::size_t i = 0; i < per_blob; ++i) {
    for (std::size_t c = 0; c < centers.size(); ++c) {
      dataset.Add(UncertainPoint({centers[c][0] + rng.Gaussian(0.0, 0.5),
                                  centers[c][1] + rng.Gaussian(0.0, 0.5)},
                                 ts, static_cast<int>(c)));
      ts += 1.0;
    }
  }
  return dataset;
}

TEST(CluStreamClusterTest, CentroidAndRms) {
  CluStreamCluster cluster;
  cluster.cf1 = {6.0, 12.0};
  cluster.cf2 = {14.0, 50.0};
  cluster.count = 3.0;
  EXPECT_DOUBLE_EQ(cluster.CentroidAt(0), 2.0);
  EXPECT_DOUBLE_EQ(cluster.CentroidAt(1), 4.0);
  // var0 = 14/3 - 4 = 2/3 ; var1 = 50/3 - 16 = 2/3 ; rms = sqrt(4/3)
  EXPECT_NEAR(cluster.RmsDeviation(), std::sqrt(4.0 / 3.0), 1e-12);
}

TEST(CluStreamClusterTest, TimeMoments) {
  CluStreamCluster cluster;
  cluster.cf1 = {0.0};
  cluster.cf2 = {0.0};
  cluster.count = 4.0;
  cluster.cf1_time = 20.0;   // times 2,4,6,8
  cluster.cf2_time = 120.0;  // 4+16+36+64
  EXPECT_DOUBLE_EQ(cluster.MeanTime(), 5.0);
  EXPECT_NEAR(cluster.TimeStddev(), std::sqrt(5.0), 1e-12);
}

TEST(CluStreamTest, FirstPointCreatesSingleton) {
  CluStream algorithm(2, CluStreamOptions{});
  algorithm.Process(UncertainPoint({1.0, 1.0}, 0.0, 0));
  ASSERT_EQ(algorithm.clusters().size(), 1u);
  EXPECT_DOUBLE_EQ(algorithm.clusters()[0].count, 1.0);
}

TEST(CluStreamTest, IgnoresErrorVectors) {
  // Identical value streams with and without errors must produce the
  // same micro-clusters: CluStream is purely deterministic.
  CluStream with_errors(1, CluStreamOptions{});
  CluStream without_errors(1, CluStreamOptions{});
  util::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.Gaussian(0.0, 1.0);
    with_errors.Process(
        UncertainPoint({v}, {5.0}, static_cast<double>(i), 0));
    without_errors.Process(UncertainPoint({v}, static_cast<double>(i), 0));
  }
  ASSERT_EQ(with_errors.clusters().size(), without_errors.clusters().size());
  for (std::size_t i = 0; i < with_errors.clusters().size(); ++i) {
    EXPECT_DOUBLE_EQ(with_errors.clusters()[i].count,
                     without_errors.clusters()[i].count);
    EXPECT_EQ(with_errors.clusters()[i].cf1,
              without_errors.clusters()[i].cf1);
  }
}

TEST(CluStreamTest, RespectsClusterBudget) {
  CluStreamOptions options;
  options.num_micro_clusters = 8;
  CluStream algorithm(2, options);
  util::Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    algorithm.Process(UncertainPoint(
        {rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)},
        static_cast<double>(i)));
  }
  EXPECT_LE(algorithm.clusters().size(), 8u);
  EXPECT_GT(algorithm.clusters_deleted() + algorithm.clusters_merged(), 0u);
}

TEST(CluStreamTest, SeparatedBlobsYieldPureClusters) {
  const Dataset dataset = MakeBlobs(400, 3);
  CluStreamOptions options;
  options.num_micro_clusters = 30;
  CluStream algorithm(2, options);
  for (const auto& point : dataset.points()) algorithm.Process(point);
  EXPECT_GT(eval::ClusterPurity(algorithm.ClusterLabelHistograms()), 0.95);
}

TEST(CluStreamTest, MergePreservesMassAndIds) {
  CluStreamOptions options;
  options.num_micro_clusters = 4;
  options.recency_threshold_delta = 1e12;  // force merges, never deletes
  CluStream algorithm(1, options);
  for (int i = 0; i < 30; ++i) {
    // Geometrically spaced values outpace any cluster's growing RMS
    // boundary, forcing new-cluster creation and, past the budget of 4,
    // merges.
    algorithm.Process(UncertainPoint({std::pow(4.0, i)},
                                     static_cast<double>(i), 0));
  }
  double total = 0.0;
  std::size_t total_ids = 0;
  for (const auto& cluster : algorithm.clusters()) {
    total += cluster.count;
    total_ids += cluster.ids.size();
  }
  EXPECT_DOUBLE_EQ(total, 30.0);  // merging never loses points
  // Every id ever issued survives inside some merged id list.
  EXPECT_EQ(total_ids,
            algorithm.clusters_merged() + algorithm.clusters().size());
  EXPECT_GT(algorithm.clusters_merged(), 0u);
  EXPECT_EQ(algorithm.clusters_deleted(), 0u);
}

TEST(CluStreamTest, DeletesStaleClustersWhenAllowed) {
  CluStreamOptions options;
  options.num_micro_clusters = 4;
  options.recency_threshold_delta = 10.0;  // aggressive recency cut
  options.recency_sample_m = 2;
  CluStream algorithm(1, options);
  // Early cluster, then a long gap, then widely scattered points whose
  // creations overflow the budget; the stale first cluster (relevance
  // stamp 0 << now - delta) must be deleted rather than merged.
  algorithm.Process(UncertainPoint({1.0}, 0.0, 0));
  for (int i = 1; i < 20; ++i) {
    algorithm.Process(UncertainPoint({std::pow(8.0, i)},
                                     1000.0 + static_cast<double>(i), 1));
  }
  EXPECT_GT(algorithm.clusters_deleted(), 0u);
}

TEST(CluStreamTest, RelevanceStampSmallClustersUseMean) {
  CluStreamOptions options;
  options.recency_sample_m = 100;
  CluStream algorithm(1, options);
  // A lone singleton only absorbs exact duplicates, so feed one.
  algorithm.Process(UncertainPoint({0.0}, 10.0, 0));
  algorithm.Process(UncertainPoint({0.0}, 20.0, 0));
  ASSERT_EQ(algorithm.clusters().size(), 1u);
  // n=2 < 2m: relevance = mean timestamp = 15.
  EXPECT_NEAR(algorithm.RelevanceStamp(0), 15.0, 1e-9);
}

TEST(CluStreamTest, RelevanceStampLargeClustersAboveMean) {
  CluStreamOptions options;
  options.recency_sample_m = 10;
  options.num_micro_clusters = 4;
  CluStream algorithm(1, options);
  for (int i = 0; i < 200; ++i) {
    algorithm.Process(UncertainPoint({0.0}, static_cast<double>(i), 0));
  }
  ASSERT_EQ(algorithm.clusters().size(), 1u);
  // The last-10-points average arrival must exceed the overall mean.
  EXPECT_GT(algorithm.RelevanceStamp(0), algorithm.clusters()[0].MeanTime());
}

TEST(CluStreamTest, SnapshotCarriesZeroErrorStatistics) {
  const Dataset dataset = MakeBlobs(100, 7);
  CluStream algorithm(2, CluStreamOptions{});
  for (const auto& point : dataset.points()) algorithm.Process(point);
  const core::Snapshot snapshot = algorithm.TakeSnapshot(299.0);
  EXPECT_DOUBLE_EQ(snapshot.time, 299.0);
  ASSERT_EQ(snapshot.size(), algorithm.clusters().size());
  double mass = 0.0;
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    mass += snapshot.weight(i);
    for (std::size_t j = 0; j < snapshot.dims(); ++j) {
      EXPECT_DOUBLE_EQ(snapshot.ef2(i)[j], 0.0);
    }
  }
  EXPECT_DOUBLE_EQ(mass, 300.0);
}

TEST(CluStreamTest, SnapshotSubtractionRecoversWindow) {
  CluStream algorithm(1, CluStreamOptions{});
  for (int i = 0; i < 100; ++i) {
    algorithm.Process(UncertainPoint({0.0}, static_cast<double>(i), 0));
  }
  const core::Snapshot mid = algorithm.TakeSnapshot(99.0);
  for (int i = 100; i < 150; ++i) {
    algorithm.Process(UncertainPoint({0.0}, static_cast<double>(i), 0));
  }
  const core::Snapshot end = algorithm.TakeSnapshot(149.0);
  const auto window = core::SubtractSnapshot(end, mid);
  double mass = 0.0;
  for (const auto& state : window) mass += state.ecf.weight();
  EXPECT_NEAR(mass, 50.0, 1e-9);
}

TEST(CluStreamTest, CentroidsLandOnBlobCenters) {
  const Dataset dataset = MakeBlobs(500, 5);
  CluStreamOptions options;
  options.num_micro_clusters = 12;
  CluStream algorithm(2, options);
  for (const auto& point : dataset.points()) algorithm.Process(point);
  const std::vector<std::vector<double>> truth = {
      {0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  for (const auto& center : truth) {
    double best = 1e18;
    for (const auto& centroid : algorithm.ClusterCentroids()) {
      best = std::min(best, util::EuclideanDistance(center, centroid));
    }
    EXPECT_LT(best, 1.0);
  }
}

}  // namespace
}  // namespace umicro::baseline
