// Randomized round-trip properties of every serialization path: CSV
// datasets, snapshots, and checkpoints must survive arbitrary (valid)
// contents exactly, including extreme magnitudes.

#include <cmath>

#include <gtest/gtest.h>

#include "core/umicro.h"
#include "io/csv_dataset.h"
#include "io/snapshot_io.h"
#include "io/state_io.h"
#include "stream/dataset.h"
#include "util/random.h"

namespace umicro::io {
namespace {

using stream::Dataset;
using stream::UncertainPoint;

/// Draws values spanning many magnitudes, including denormal-ish and
/// huge ones, to stress the %.17g round-trip.
double ExtremeDouble(util::Rng& rng) {
  const double mantissa = rng.Uniform(-1.0, 1.0);
  const int exponent = static_cast<int>(rng.NextBounded(61)) - 30;
  return mantissa * std::pow(10.0, exponent);
}

class CsvRoundTripProperty : public testing::TestWithParam<std::uint64_t> {
};

TEST_P(CsvRoundTripProperty, ExactThroughText) {
  util::Rng rng(GetParam());
  const std::size_t dims = 1 + rng.NextBounded(8);
  const std::size_t n = 1 + rng.NextBounded(50);
  const bool with_errors = rng.NextDouble() < 0.5;
  Dataset dataset(dims);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(dims);
    for (double& v : values) v = ExtremeDouble(rng);
    UncertainPoint point;
    if (with_errors) {
      std::vector<double> errors(dims);
      for (double& e : errors) e = std::abs(ExtremeDouble(rng));
      point = UncertainPoint(std::move(values), std::move(errors),
                             ExtremeDouble(rng),
                             static_cast<int>(rng.NextBounded(10)));
    } else {
      point = UncertainPoint(std::move(values), ExtremeDouble(rng),
                             static_cast<int>(rng.NextBounded(10)));
    }
    dataset.Add(std::move(point));
  }

  const auto loaded =
      ParseCsvDataset(DatasetToCsv(dataset), CsvReadOptions{});
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->dataset.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(loaded->dataset[i].values, dataset[i].values);
    if (with_errors) {
      EXPECT_EQ(loaded->dataset[i].errors, dataset[i].errors);
    }
    EXPECT_DOUBLE_EQ(loaded->dataset[i].timestamp, dataset[i].timestamp);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripProperty,
                         testing::Range<std::uint64_t>(1, 13));

class SnapshotRoundTripProperty
    : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotRoundTripProperty, ExactThroughText) {
  util::Rng rng(GetParam() + 1000);
  const std::size_t dims = 1 + rng.NextBounded(6);
  const double time = ExtremeDouble(rng);
  const std::size_t clusters = rng.NextBounded(20);
  std::vector<core::MicroClusterState> states;
  for (std::size_t c = 0; c < clusters; ++c) {
    core::MicroClusterState state;
    state.id = rng.NextUint64();
    state.creation_time = ExtremeDouble(rng);
    core::ErrorClusterFeature ecf(dims);
    const int points = 1 + static_cast<int>(rng.NextBounded(5));
    for (int p = 0; p < points; ++p) {
      std::vector<double> values(dims);
      std::vector<double> errors(dims);
      for (double& v : values) v = ExtremeDouble(rng);
      for (double& e : errors) e = std::abs(ExtremeDouble(rng));
      ecf.AddPoint(UncertainPoint(values, errors, ExtremeDouble(rng)));
    }
    state.ecf = std::move(ecf);
    states.push_back(std::move(state));
  }
  const core::Snapshot snapshot = core::Snapshot::FromStates(time, states);

  const auto parsed = ParseSnapshot(SnapshotToString(snapshot));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), snapshot.size());
  for (std::size_t c = 0; c < snapshot.size(); ++c) {
    const core::MicroClusterState got = parsed->State(c);
    const core::MicroClusterState want = snapshot.State(c);
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.ecf.cf1(), want.ecf.cf1());
    EXPECT_EQ(got.ecf.cf2(), want.ecf.cf2());
    EXPECT_EQ(got.ecf.ef2(), want.ecf.ef2());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRoundTripProperty,
                         testing::Range<std::uint64_t>(1, 9));

class CheckpointRoundTripProperty
    : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointRoundTripProperty, ResumeEqualsUninterrupted) {
  util::Rng rng(GetParam() + 5000);
  const std::size_t dims = 1 + rng.NextBounded(5);
  core::UMicroOptions options;
  options.num_micro_clusters = 5 + rng.NextBounded(30);
  options.decay_lambda = rng.NextDouble() < 0.5 ? 0.0 : 0.002;

  std::vector<UncertainPoint> points;
  for (int i = 0; i < 800; ++i) {
    std::vector<double> values(dims);
    std::vector<double> errors(dims);
    for (double& v : values) v = rng.Uniform(-10.0, 10.0);
    for (double& e : errors) e = rng.Uniform(0.0, 1.0);
    points.emplace_back(std::move(values), std::move(errors),
                        static_cast<double>(i),
                        static_cast<int>(rng.NextBounded(3)));
  }
  const std::size_t cut = 100 + rng.NextBounded(600);

  core::UMicro uninterrupted(dims, options);
  for (const auto& point : points) uninterrupted.Process(point);

  core::UMicro first(dims, options);
  for (std::size_t i = 0; i < cut; ++i) first.Process(points[i]);
  const auto parsed =
      ParseUMicroState(UMicroStateToString(first.ExportState()));
  ASSERT_TRUE(parsed.has_value());
  core::UMicro resumed(dims, options);
  resumed.RestoreState(*parsed);
  for (std::size_t i = cut; i < points.size(); ++i) {
    resumed.Process(points[i]);
  }

  ASSERT_EQ(resumed.clusters().size(), uninterrupted.clusters().size());
  for (std::size_t c = 0; c < resumed.clusters().size(); ++c) {
    EXPECT_EQ(resumed.clusters()[c].id, uninterrupted.clusters()[c].id);
    EXPECT_DOUBLE_EQ(resumed.clusters()[c].ecf.weight(),
                     uninterrupted.clusters()[c].ecf.weight());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointRoundTripProperty,
                         testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace umicro::io
