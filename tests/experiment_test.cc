// Tests for the experiment harness.

#include "eval/experiment.h"

#include <gtest/gtest.h>

#include "baseline/clustream.h"
#include "core/umicro.h"
#include "stream/dataset.h"
#include "util/random.h"

namespace umicro::eval {
namespace {

using stream::Dataset;
using stream::UncertainPoint;

Dataset TwoBlobDataset(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset dataset(2);
  for (std::size_t i = 0; i < n; ++i) {
    const int c = static_cast<int>(rng.NextBounded(2));
    dataset.Add(UncertainPoint({c * 10.0 + rng.Gaussian(0.0, 0.4),
                                rng.Gaussian(0.0, 0.4)},
                               static_cast<double>(i), c));
  }
  return dataset;
}

TEST(PurityExperimentTest, SamplesAtRequestedInterval) {
  const Dataset dataset = TwoBlobDataset(1000, 1);
  core::UMicro algorithm(2, core::UMicroOptions{});
  const PuritySeries series =
      RunPurityExperiment(algorithm, dataset, 250);
  ASSERT_EQ(series.samples.size(), 4u);
  EXPECT_EQ(series.samples[0].points_processed, 250u);
  EXPECT_EQ(series.samples[3].points_processed, 1000u);
  EXPECT_EQ(series.algorithm, "UMicro");
}

TEST(PurityExperimentTest, TrailingSampleForUnevenInterval) {
  const Dataset dataset = TwoBlobDataset(1050, 2);
  core::UMicro algorithm(2, core::UMicroOptions{});
  const PuritySeries series =
      RunPurityExperiment(algorithm, dataset, 500);
  ASSERT_EQ(series.samples.size(), 3u);
  EXPECT_EQ(series.samples.back().points_processed, 1050u);
}

TEST(PurityExperimentTest, EasyDataGivesHighPurity) {
  const Dataset dataset = TwoBlobDataset(2000, 3);
  core::UMicroOptions options;
  options.num_micro_clusters = 20;
  core::UMicro algorithm(2, options);
  const PuritySeries series =
      RunPurityExperiment(algorithm, dataset, 500);
  for (const auto& sample : series.samples) {
    EXPECT_GT(sample.purity, 0.9);
    EXPECT_GT(sample.weighted_purity, 0.9);
    EXPECT_GT(sample.live_clusters, 0u);
  }
  EXPECT_GT(series.MeanPurity(), 0.9);
}

TEST(PurityExperimentTest, WorksWithCluStream) {
  const Dataset dataset = TwoBlobDataset(1000, 4);
  baseline::CluStream algorithm(2, baseline::CluStreamOptions{});
  const PuritySeries series =
      RunPurityExperiment(algorithm, dataset, 200);
  EXPECT_EQ(series.algorithm, "CluStream");
  EXPECT_GT(series.MeanPurity(), 0.9);
}

TEST(ThroughputExperimentTest, ProducesMonotonicSamples) {
  const Dataset dataset = TwoBlobDataset(5000, 5);
  core::UMicro algorithm(2, core::UMicroOptions{});
  const ThroughputSeries series =
      RunThroughputExperiment(algorithm, dataset, 1000);
  ASSERT_GE(series.samples.size(), 5u);
  std::size_t previous = 0;
  for (const auto& sample : series.samples) {
    EXPECT_GT(sample.points_processed, previous);
    previous = sample.points_processed;
    EXPECT_GT(sample.points_per_second, 0.0);
  }
  EXPECT_GT(series.overall_points_per_second, 0.0);
}

}  // namespace
}  // namespace umicro::eval
