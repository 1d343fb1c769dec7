// Focused tests of the exponential time-decay semantics (Section II-E).

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/umicro.h"
#include "io/state_io.h"
#include "stream/clusterer.h"
#include "stream/point.h"
#include "util/random.h"

namespace umicro::core {
namespace {

using stream::UncertainPoint;

/// Decayed UMicro with budget 1: every point's statistics end up in the
/// single cluster (absorbed or merged in), so the cluster's ECF must
/// equal the brute-force weighted sums
///   CF1_j = sum_i 2^(-lambda (t_c - t_i)) x_ij        (Defn 2.3)
/// and likewise for CF2 / EF2 / W.
class DecayLawTest : public testing::TestWithParam<double> {};

TEST_P(DecayLawTest, LazyDecayMatchesBruteForceWeighting) {
  const double lambda = GetParam();
  UMicroOptions options;
  options.num_micro_clusters = 1;
  options.decay_lambda = lambda;
  UMicro algorithm(2, options);

  util::Rng rng(99);
  std::vector<UncertainPoint> points;
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += rng.Uniform(0.5, 3.0);  // irregular arrival times
    points.emplace_back(
        std::vector<double>{rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0)},
        std::vector<double>{rng.Uniform(0.0, 0.5), rng.Uniform(0.0, 0.5)},
        t);
    algorithm.Process(points.back());
  }
  const std::vector<MicroCluster> clusters = algorithm.clusters();
  ASSERT_EQ(clusters.size(), 1u);
  const ErrorClusterFeature& ecf = clusters[0].ecf;

  const double t_c = points.back().timestamp;
  double expected_w = 0.0;
  std::vector<double> expected_cf1(2, 0.0);
  std::vector<double> expected_cf2(2, 0.0);
  std::vector<double> expected_ef2(2, 0.0);
  for (const auto& point : points) {
    const double w = std::exp2(-lambda * (t_c - point.timestamp));
    expected_w += w;
    for (std::size_t j = 0; j < 2; ++j) {
      expected_cf1[j] += w * point.values[j];
      expected_cf2[j] += w * point.values[j] * point.values[j];
      expected_ef2[j] += w * point.errors[j] * point.errors[j];
    }
  }

  EXPECT_NEAR(ecf.weight(), expected_w, 1e-6 * expected_w);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(ecf.cf1()[j], expected_cf1[j],
                1e-6 * (std::abs(expected_cf1[j]) + 1.0));
    EXPECT_NEAR(ecf.cf2()[j], expected_cf2[j], 1e-6 * (expected_cf2[j] + 1.0));
    EXPECT_NEAR(ecf.ef2()[j], expected_ef2[j], 1e-6 * (expected_ef2[j] + 1.0));
  }
}

INSTANTIATE_TEST_SUITE_P(Lambdas, DecayLawTest,
                         testing::Values(0.001, 0.01, 0.05, 0.2, 1.0));

TEST(DecayTest, HalfLifeLaw) {
  // Definition 2.2: the half-life is 1/lambda -- a point's weight halves
  // every 1/lambda time units. Feed one point, advance the clock by
  // k/lambda via subsequent points far away, check the weight.
  const double lambda = 0.02;  // half-life 50
  UMicroOptions options;
  options.num_micro_clusters = 10;
  options.decay_lambda = lambda;
  UMicro algorithm(1, options);
  algorithm.Process(UncertainPoint({0.0}, 0.0, 0));
  // Three half-lives later.
  algorithm.Process(UncertainPoint({1000.0}, 150.0, 1));
  double old_weight = -1.0;
  for (const auto& cluster : algorithm.clusters()) {
    if (std::abs(cluster.ecf.CentroidAt(0)) < 1.0) {
      old_weight = cluster.ecf.weight();
    }
  }
  ASSERT_GE(old_weight, 0.0);
  EXPECT_NEAR(old_weight, std::pow(0.5, 3.0), 1e-9);
}

TEST(DecayTest, ZeroLambdaNeverDecays) {
  UMicroOptions options;
  options.decay_lambda = 0.0;
  UMicro algorithm(1, options);
  algorithm.Process(UncertainPoint({0.0}, 0.0, 0));
  algorithm.Process(UncertainPoint({1e6}, 1e9, 1));
  for (const auto& cluster : algorithm.clusters()) {
    EXPECT_DOUBLE_EQ(cluster.ecf.weight(), 1.0);
  }
}

TEST(DecayTest, DecayDoesNotChangeAsymptoticComplexity) {
  // Not a wall-clock test (flaky); a structural one: with decay enabled,
  // processing must touch each cluster O(1) times per point -- verified
  // by the observable state being identical whether points arrive with
  // dt=1 one by one or in a burst at the same final time after a gap
  // (the lazy decay must be exact, not time-step-dependent).
  UMicroOptions options;
  options.num_micro_clusters = 4;
  options.decay_lambda = 0.01;
  UMicro a(1, options);
  UMicro b(1, options);
  // Algorithm a: point at t=0, then at t=100.
  a.Process(UncertainPoint({0.0}, 0.0, 0));
  a.Process(UncertainPoint({50.0}, 100.0, 1));
  // Algorithm b: same two points; the decay of the first cluster must
  // depend only on elapsed time, which is identical.
  b.Process(UncertainPoint({0.0}, 0.0, 0));
  b.Process(UncertainPoint({50.0}, 100.0, 1));
  const std::vector<MicroCluster> a_clusters = a.clusters();
  const std::vector<MicroCluster> b_clusters = b.clusters();
  ASSERT_EQ(a_clusters.size(), b_clusters.size());
  for (std::size_t i = 0; i < a_clusters.size(); ++i) {
    EXPECT_DOUBLE_EQ(a_clusters[i].ecf.weight(), b_clusters[i].ecf.weight());
  }
}

TEST(DecayTest, WeightedLemmasStillHold) {
  // Lemma 2.1/2.2 "can be easily extended to the weighted case": the
  // centroid of the decayed ECF is the weighted mean, and the expected
  // distance formula with weight() in place of n stays consistent with
  // a direct weighted computation.
  const double lambda = 0.1;
  UMicroOptions options;
  options.num_micro_clusters = 1;
  options.decay_lambda = lambda;
  UMicro algorithm(1, options);
  algorithm.Process(UncertainPoint({2.0}, std::vector<double>{0.3}, 0.0));
  algorithm.Process(UncertainPoint({6.0}, std::vector<double>{0.4}, 10.0));

  const std::vector<MicroCluster> clusters = algorithm.clusters();
  const ErrorClusterFeature& ecf = clusters[0].ecf;
  const double w1 = std::exp2(-lambda * 10.0);
  const double w2 = 1.0;
  const double expected_centroid = (w1 * 2.0 + w2 * 6.0) / (w1 + w2);
  EXPECT_NEAR(ecf.CentroidAt(0), expected_centroid, 1e-9);

  // Lemma 2.1 with weighted statistics.
  const double ef2 = w1 * 0.09 + w2 * 0.16;
  const double cf1 = w1 * 2.0 + w2 * 6.0;
  const double w = w1 + w2;
  EXPECT_NEAR(ecf.ExpectedCentroidNormSquared(),
              cf1 * cf1 / (w * w) + ef2 / (w * w), 1e-9);
}

TEST(DecayTest, DecayScalesLabelsWithStatistics) {
  UMicroOptions options;
  options.num_micro_clusters = 1;
  options.decay_lambda = 1.0;
  UMicro algorithm(1, options);
  algorithm.Process(UncertainPoint({4.0}, 0.0, 2));
  // One time unit later the first point weighs 1/2, in the statistics
  // and in the histogram alike.
  algorithm.Process(UncertainPoint({4.0}, 1.0, 2));
  algorithm.Process(UncertainPoint({4.0}, 1.0, 3));
  const std::vector<MicroCluster> clusters = algorithm.clusters();
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].ecf.weight(), 2.5);
  EXPECT_EQ(clusters[0].labels,
            (stream::LabelHistogram{{2, 1.5}, {3, 1.0}}));
}

TEST(DecayTest, HistogramMassTracksWeightThroughMerges) {
  UMicroOptions options;
  options.num_micro_clusters = 5;
  options.decay_lambda = 0.05;
  UMicro algorithm(2, options);
  util::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const int label = static_cast<int>(rng.NextBounded(3));
    algorithm.Process(UncertainPoint(
        {10.0 * label + rng.Gaussian(0.0, 1.0), rng.Gaussian(0.0, 1.0)},
        {0.2, 0.2}, 0.5 * i, label));
  }
  ASSERT_GT(algorithm.clusters_merged(), 0u);
  for (const auto& cluster : algorithm.clusters()) {
    EXPECT_NEAR(stream::HistogramWeight(cluster.labels), cluster.ecf.weight(),
                1e-9 * cluster.ecf.weight());
  }
}

// A cluster that is never touched decays without bound. Once its weight
// falls below 2^-511 its 1/n^2 overflows, and the distance scan would
// read it as the nearest cluster to every point; it must instead be
// retired as an eviction, leaving the live cluster to absorb the stream.
TEST(DecayTest, FullyDecayedClusterIsRetired) {
  UMicroOptions options;
  options.similarity = SimilarityMode::kExpectedDistance;
  options.decay_lambda = 0.5;
  UMicro algorithm(2, options);
  algorithm.Process(UncertainPoint({0.0, 0.0}, {1.0, 1.0}, 0.0));
  const std::uint64_t b_id =
      algorithm.ProcessAndExplain(
                   UncertainPoint({100.0, 100.0}, {1.0, 1.0}, 0.0))
          .cluster_id;

  util::Rng rng(11);
  const auto next = [&rng](int t) {
    return UncertainPoint(
        {100.0 + rng.Gaussian(0.0, 1.0), 100.0 + rng.Gaussian(0.0, 1.0)},
        {1.0, 1.0}, static_cast<double>(t));
  };
  UMicro resumed(2, options);
  for (int t = 1; t <= 1500; ++t) {
    const UncertainPoint point = next(t);
    const UMicro::ProcessOutcome outcome = algorithm.ProcessAndExplain(point);
    EXPECT_TRUE(outcome.absorbed) << "t=" << t;
    EXPECT_EQ(outcome.cluster_id, b_id) << "t=" << t;
    ASSERT_LE(algorithm.num_clusters(), 2u) << "t=" << t;
    if (t == 1020) {
      EXPECT_EQ(algorithm.num_clusters(), 2u);
    }
    if (t == 1100) resumed.RestoreState(algorithm.ExportState());
    if (t > 1100) resumed.Process(point);
  }
  EXPECT_EQ(algorithm.num_clusters(), 1u);
  EXPECT_EQ(algorithm.clusters_evicted(), 1u);
  EXPECT_EQ(algorithm.clusters_created(),
            algorithm.num_clusters() + algorithm.clusters_merged() +
                algorithm.clusters_evicted());
  for (const auto& centroid : algorithm.ClusterCentroids()) {
    for (const double c : centroid) EXPECT_TRUE(std::isfinite(c));
  }
  EXPECT_EQ(io::UMicroStateToString(resumed.ExportState()),
            io::UMicroStateToString(algorithm.ExportState()));
}

}  // namespace
}  // namespace umicro::core
