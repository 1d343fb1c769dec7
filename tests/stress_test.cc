// Long-run stress tests: invariants that must hold continuously over
// extended, adversarial streams (mixed regimes, decay, heavy churn).

#include <cmath>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/umicro.h"
#include "eval/purity.h"
#include "stream/point.h"
#include "util/random.h"

namespace umicro::core {
namespace {

using stream::UncertainPoint;

/// Adversarial stream: alternating phases of tight clusters, uniform
/// scatter, bursts of duplicates, and far-away jumps, with error scales
/// spanning four orders of magnitude.
UncertainPoint AdversarialPoint(util::Rng& rng, int i) {
  const int phase = (i / 500) % 4;
  std::vector<double> values(3);
  std::vector<double> errors(3);
  switch (phase) {
    case 0:  // tight clusters
      for (int j = 0; j < 3; ++j) {
        values[j] = (i % 3) * 10.0 + rng.Gaussian(0.0, 0.1);
        errors[j] = 0.01;
      }
      break;
    case 1:  // uniform scatter with large errors
      for (int j = 0; j < 3; ++j) {
        values[j] = rng.Uniform(-1000.0, 1000.0);
        errors[j] = rng.Uniform(0.0, 100.0);
      }
      break;
    case 2:  // duplicate bursts
      for (int j = 0; j < 3; ++j) {
        values[j] = 42.0;
        errors[j] = 1e-4;
      }
      break;
    default:  // drifting far-away regime
      for (int j = 0; j < 3; ++j) {
        values[j] = 1e6 + i * 10.0 + rng.Gaussian(0.0, 5.0);
        errors[j] = rng.Uniform(0.0, 10.0);
      }
      break;
  }
  return UncertainPoint(std::move(values), std::move(errors),
                        static_cast<double>(i), phase);
}

TEST(StressTest, InvariantsHoldOverAdversarialStream) {
  UMicroOptions options;
  options.num_micro_clusters = 30;
  options.decay_lambda = 1.0 / 2000.0;
  options.eviction_horizon = 1500.0;
  UMicro algorithm(3, options);
  util::Rng rng(1);

  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    algorithm.Process(AdversarialPoint(rng, i));
    if (i % 500 == 499) {
      // Continuous invariants.
      EXPECT_LE(algorithm.clusters().size(),
                options.num_micro_clusters);
      double total_weight = 0.0;
      for (const auto& cluster : algorithm.clusters()) {
        EXPECT_GT(cluster.ecf.weight(), 0.0);
        EXPECT_TRUE(std::isfinite(cluster.ecf.weight()));
        EXPECT_GE(cluster.ecf.UncertainRadiusSquared(), 0.0);
        for (double v : cluster.ecf.Centroid()) {
          EXPECT_TRUE(std::isfinite(v));
        }
        total_weight += cluster.ecf.weight();
      }
      // Decayed total mass can never exceed points seen.
      EXPECT_LE(total_weight, static_cast<double>(i + 1));
      for (double v : algorithm.global_variances()) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_GE(v, 0.0);
      }
    }
  }
  EXPECT_EQ(algorithm.points_processed(), static_cast<std::size_t>(n));
  // Bookkeeping identity: every creation is eventually alive, merged
  // away, or evicted.
  EXPECT_EQ(algorithm.clusters_created(),
            algorithm.clusters().size() + algorithm.clusters_merged() +
                algorithm.clusters_evicted());
}

TEST(StressTest, EngineSurvivesLongRunWithSnapshots) {
  EngineConfig options;
  options.snapshot.snapshot_every = 64;
  options.umicro.num_micro_clusters = 25;
  UMicroEngine engine(3, options);
  util::Rng rng(2);
  for (int i = 0; i < 30000; ++i) {
    engine.Process(AdversarialPoint(rng, i));
  }
  // Pyramidal storage stays logarithmic: 30000/64 = 468 ticks, far more
  // than are retained.
  EXPECT_LT(engine.store().TotalStored(), 120u);
  EXPECT_GT(engine.store().TotalStored(), 10u);

  MacroClusteringOptions macro;
  macro.k = 4;
  const auto recent = engine.ClusterRecent(2000.0, macro);
  ASSERT_TRUE(recent.has_value());
  EXPECT_LE(recent->macro.centroids.size(), 4u);
  for (const auto& centroid : recent->macro.centroids) {
    for (double v : centroid) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(StressTest, ExtremeMagnitudesStayFinite) {
  UMicroOptions options;
  options.num_micro_clusters = 10;
  UMicro algorithm(2, options);
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const double scale = std::pow(10.0, rng.Uniform(-8.0, 8.0));
    algorithm.Process(UncertainPoint(
        {scale * rng.Uniform(-1.0, 1.0), scale * rng.Uniform(-1.0, 1.0)},
        {scale * 0.01, scale * 0.01}, static_cast<double>(i)));
  }
  for (const auto& cluster : algorithm.clusters()) {
    EXPECT_TRUE(std::isfinite(cluster.ecf.UncertainRadiusSquared()));
    EXPECT_TRUE(std::isfinite(
        cluster.ecf.ExpectedCentroidNormSquared()));
  }
}

}  // namespace
}  // namespace umicro::core
