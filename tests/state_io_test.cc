// Tests for UMicro checkpoint/restore and its serialization.

#include "io/state_io.h"

#include <gtest/gtest.h>

#include "stream/dataset.h"
#include "util/random.h"

namespace umicro::io {
namespace {

using core::UMicro;
using core::UMicroOptions;
using core::UMicroState;
using stream::UncertainPoint;

stream::Dataset RandomStream(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  stream::Dataset dataset(3);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.NextBounded(3));
    dataset.Add(UncertainPoint(
        {cls * 5.0 + rng.Gaussian(0.0, 0.5), rng.Gaussian(0.0, 0.5),
         rng.Gaussian(0.0, 0.5)},
        {rng.Uniform(0.0, 0.3), rng.Uniform(0.0, 0.3),
         rng.Uniform(0.0, 0.3)},
        static_cast<double>(i), cls));
  }
  return dataset;
}

void ExpectSameClusters(const UMicro& a, const UMicro& b) {
  ASSERT_EQ(a.clusters().size(), b.clusters().size());
  for (std::size_t i = 0; i < a.clusters().size(); ++i) {
    EXPECT_EQ(a.clusters()[i].id, b.clusters()[i].id);
    EXPECT_DOUBLE_EQ(a.clusters()[i].ecf.weight(),
                     b.clusters()[i].ecf.weight());
    EXPECT_EQ(a.clusters()[i].ecf.cf1(), b.clusters()[i].ecf.cf1());
    EXPECT_EQ(a.clusters()[i].ecf.cf2(), b.clusters()[i].ecf.cf2());
    EXPECT_EQ(a.clusters()[i].ecf.ef2(), b.clusters()[i].ecf.ef2());
    EXPECT_EQ(a.clusters()[i].labels, b.clusters()[i].labels);
  }
}

TEST(StateIoTest, ExportRestoreRoundTripInMemory) {
  const auto dataset = RandomStream(2000, 1);
  UMicroOptions options;
  options.num_micro_clusters = 25;
  UMicro original(3, options);
  for (const auto& point : dataset.points()) original.Process(point);

  UMicro restored(3, options);
  restored.RestoreState(original.ExportState());
  ExpectSameClusters(original, restored);
  EXPECT_EQ(restored.points_processed(), original.points_processed());
  EXPECT_EQ(restored.global_variances(), original.global_variances());
}

TEST(StateIoTest, ResumedStreamMatchesUninterrupted) {
  // The crucial property: checkpoint at the midpoint, restore into a
  // fresh instance, continue -- the result must be bit-identical to an
  // uninterrupted run (including decay bookkeeping).
  const auto dataset = RandomStream(3000, 2);
  UMicroOptions options;
  options.num_micro_clusters = 20;
  options.decay_lambda = 1.0 / 500.0;

  UMicro uninterrupted(3, options);
  for (const auto& point : dataset.points()) uninterrupted.Process(point);

  UMicro first_half(3, options);
  for (std::size_t i = 0; i < 1500; ++i) first_half.Process(dataset[i]);
  const std::string checkpoint =
      UMicroStateToString(first_half.ExportState());

  const auto parsed = ParseUMicroState(checkpoint);
  ASSERT_TRUE(parsed.has_value());
  UMicro resumed(3, options);
  resumed.RestoreState(*parsed);
  for (std::size_t i = 1500; i < 3000; ++i) resumed.Process(dataset[i]);

  ExpectSameClusters(uninterrupted, resumed);
  EXPECT_EQ(resumed.points_processed(), 3000u);
  EXPECT_EQ(resumed.clusters_created(), uninterrupted.clusters_created());
  EXPECT_EQ(resumed.clusters_merged(), uninterrupted.clusters_merged());
}

TEST(StateIoTest, TextRoundTripExact) {
  const auto dataset = RandomStream(500, 3);
  UMicro algorithm(3, UMicroOptions{});
  for (const auto& point : dataset.points()) algorithm.Process(point);

  const UMicroState state = algorithm.ExportState();
  const auto parsed = ParseUMicroState(UMicroStateToString(state));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->next_cluster_id, state.next_cluster_id);
  EXPECT_EQ(parsed->points_processed, state.points_processed);
  ASSERT_EQ(parsed->welford.size(), state.welford.size());
  for (std::size_t j = 0; j < state.welford.size(); ++j) {
    EXPECT_EQ(parsed->welford[j].count, state.welford[j].count);
    EXPECT_DOUBLE_EQ(parsed->welford[j].mean, state.welford[j].mean);
    EXPECT_DOUBLE_EQ(parsed->welford[j].m2, state.welford[j].m2);
  }
  ASSERT_EQ(parsed->clusters.size(), state.clusters.size());
  ASSERT_EQ(parsed->clusters.labels.size(), state.clusters.size());
  const core::Snapshot& got = parsed->clusters.frame;
  const core::Snapshot& want = state.clusters.frame;
  for (std::size_t c = 0; c < state.clusters.size(); ++c) {
    EXPECT_EQ(std::vector<double>(got.cf1(c), got.cf1(c) + got.dims()),
              std::vector<double>(want.cf1(c), want.cf1(c) + want.dims()));
    EXPECT_EQ(parsed->clusters.labels[c], state.clusters.labels[c]);
  }
}

TEST(StateIoTest, RejectsGarbage) {
  EXPECT_FALSE(ParseUMicroState("").has_value());
  EXPECT_FALSE(ParseUMicroState("not a state").has_value());
  EXPECT_FALSE(ParseUMicroState("ustate 999\ndims 1\n").has_value());
}

TEST(StateIoTest, RejectsTruncated) {
  const auto dataset = RandomStream(200, 4);
  UMicro algorithm(3, UMicroOptions{});
  for (const auto& point : dataset.points()) algorithm.Process(point);
  std::string text = UMicroStateToString(algorithm.ExportState());
  text.resize(text.size() / 2);
  EXPECT_FALSE(ParseUMicroState(text).has_value());
}

}  // namespace
}  // namespace umicro::io
