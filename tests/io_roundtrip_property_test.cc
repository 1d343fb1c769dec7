// Randomized round-trip properties of every serialization path: CSV
// datasets, snapshots, and checkpoints must survive arbitrary (valid)
// contents exactly, including extreme magnitudes.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
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

/// Doubles whose %.17g text is the hardest to read back exactly: signed
/// zero, the subnormal ends, the normal ends and values that need all
/// 17 significant digits.
std::vector<double> EdgeDoubles() {
  using limits = std::numeric_limits<double>;
  return {-0.0,
          limits::denorm_min(),                    // 4.9406564584124654e-324
          limits::min() - limits::denorm_min(),    // largest subnormal
          limits::min(),
          limits::max(),
          -limits::max(),
          0.1,
          1.0 / 3.0,
          -2.0 / 3.0 * 1e-300,
          0.30000000000000004,
          9007199254740993.0,
          -1.2345678901234567e-200};
}

/// Ids and counts near 2^64 - 1.
constexpr std::uint64_t kTopId = std::numeric_limits<std::uint64_t>::max();

double NonNegative(double v) { return v < 0.0 ? -v : v; }

/// A hand-built engine state that carries every edge value in every
/// section: counters, the clock, Welford accumulators, variances, the
/// labeled cluster records, full and delta store frames and the metric
/// cells.
core::EngineState EdgeEngineState() {
  const std::vector<double> edge = EdgeDoubles();
  const std::size_t dims = edge.size();
  const auto rotated = [&edge](std::size_t by) {
    std::vector<double> row(edge.size());
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = edge[(j + by) % edge.size()];
    }
    return row;
  };
  const auto frame = [&](double time, std::size_t records) {
    core::Snapshot out(time, dims, records);
    for (std::size_t c = 0; c < records; ++c) {
      const std::vector<double> cf1 = rotated(c);
      const std::vector<double> cf2 = rotated(c + 1);
      const std::vector<double> ef2 = rotated(c + 2);
      out.Append(kTopId - c, edge[c % dims], NonNegative(edge[(c + 3) % dims]),
                 edge[(c + 4) % dims], cf1.data(), cf2.data(), ef2.data());
    }
    return out;
  };

  core::EngineState state;
  state.engine_kind = "umicro";
  state.dimensions = dims;
  state.points_ingested = kTopId - 1;
  state.next_round_robin = kTopId;
  state.next_tick = kTopId;
  state.since_snapshot = kTopId - 2;
  state.last_timestamp = std::numeric_limits<double>::max();

  core::UMicroState shard;
  shard.next_cluster_id = kTopId;
  shard.points_processed = kTopId;
  shard.clusters_created = kTopId - 1;
  shard.clusters_evicted = kTopId - 2;
  shard.clusters_merged = kTopId - 3;
  shard.last_decay_time = std::numeric_limits<double>::denorm_min();
  shard.decay_clock_started = true;
  for (std::size_t j = 0; j < dims; ++j) {
    shard.welford.push_back({kTopId - j, edge[j], NonNegative(edge[j])});
    shard.global_variances.push_back(NonNegative(edge[dims - 1 - j]));
  }
  shard.clusters.frame = frame(0.0, 5);
  for (std::size_t c = 0; c < 5; ++c) {
    shard.clusters.labels.push_back(
        {{std::numeric_limits<int>::min(), std::numeric_limits<double>::min()},
         {static_cast<int>(c), edge[c]},
         {std::numeric_limits<int>::max(), edge[c + 1]}});
  }
  state.shard_states.push_back(std::move(shard));

  state.store.last_tick = kTopId;
  state.store.alpha = 2;
  state.store.l = 2;
  state.store.orders.resize(1);
  core::EncodedFrame full;
  full.tick = kTopId - 2;
  full.time = -0.0;
  full.encoding = core::FrameEncoding::kFull;
  full.full = std::make_shared<core::Snapshot>(frame(-0.0, 4));
  full.cluster_count = 4;
  full.dims = dims;
  state.store.orders[0].push_back(std::move(full));

  core::EncodedFrame delta;
  delta.tick = kTopId - 1;
  delta.time = std::numeric_limits<double>::min();
  delta.encoding = core::FrameEncoding::kDelta;
  delta.ids = {kTopId, kTopId - 1, kTopId - 2};
  delta.changed = frame(delta.time, 2);
  delta.cluster_count = 3;
  delta.dims = dims;
  state.store.orders[0].push_back(std::move(delta));

  for (std::size_t j = 0; j < dims; ++j) {
    state.counters.emplace_back("counter." + std::to_string(j), edge[j]);
    state.gauges.emplace_back("gauge." + std::to_string(j),
                              edge[dims - 1 - j]);
  }
  return state;
}

/// True when the two blocks hold the same bits (-0.0 differs from 0.0).
template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool SameBits(const core::Snapshot& a, const core::Snapshot& b) {
  const std::size_t doubles = a.size() * core::Snapshot::RecordSize(a.dims());
  return a.size() == b.size() && a.dims() == b.dims() &&
         std::bit_cast<std::uint64_t>(a.time) ==
             std::bit_cast<std::uint64_t>(b.time) &&
         (doubles == 0 ||
          std::memcmp(a.record(0), b.record(0), doubles * sizeof(double)) ==
              0);
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(EdgeValueRoundTripTest, CheckpointKeepsEveryByteAndEveryBit) {
  const core::EngineState want = EdgeEngineState();
  const std::string text = EngineStateToString(want);
  const std::optional<core::EngineState> got = ParseEngineState(text);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(EngineStateToString(*got), text);

  EXPECT_EQ(got->points_ingested, want.points_ingested);
  EXPECT_EQ(got->next_round_robin, want.next_round_robin);
  EXPECT_EQ(got->next_tick, want.next_tick);
  EXPECT_EQ(got->since_snapshot, want.since_snapshot);
  EXPECT_EQ(Bits(got->last_timestamp), Bits(want.last_timestamp));

  ASSERT_EQ(got->shard_states.size(), 1u);
  const core::UMicroState& shard = got->shard_states[0];
  const core::UMicroState& want_shard = want.shard_states[0];
  EXPECT_EQ(shard.next_cluster_id, want_shard.next_cluster_id);
  EXPECT_EQ(shard.points_processed, want_shard.points_processed);
  EXPECT_EQ(shard.clusters_created, want_shard.clusters_created);
  EXPECT_EQ(shard.clusters_evicted, want_shard.clusters_evicted);
  EXPECT_EQ(shard.clusters_merged, want_shard.clusters_merged);
  EXPECT_EQ(Bits(shard.last_decay_time), Bits(want_shard.last_decay_time));
  ASSERT_EQ(shard.welford.size(), want_shard.welford.size());
  for (std::size_t j = 0; j < shard.welford.size(); ++j) {
    EXPECT_EQ(shard.welford[j].count, want_shard.welford[j].count);
    EXPECT_EQ(Bits(shard.welford[j].mean), Bits(want_shard.welford[j].mean));
    EXPECT_EQ(Bits(shard.welford[j].m2), Bits(want_shard.welford[j].m2));
  }
  EXPECT_TRUE(SameBits(shard.global_variances, want_shard.global_variances));
  EXPECT_TRUE(SameBits(shard.clusters.frame, want_shard.clusters.frame));
  ASSERT_EQ(shard.clusters.labels.size(), want_shard.clusters.labels.size());
  for (std::size_t c = 0; c < shard.clusters.labels.size(); ++c) {
    ASSERT_EQ(shard.clusters.labels[c].size(),
              want_shard.clusters.labels[c].size());
    for (const auto& [label, weight] : want_shard.clusters.labels[c]) {
      ASSERT_EQ(shard.clusters.labels[c].count(label), 1u);
      EXPECT_EQ(Bits(shard.clusters.labels[c].at(label)), Bits(weight));
    }
  }

  ASSERT_EQ(got->store.orders.size(), 1u);
  const auto& frames = got->store.orders[0];
  const auto& want_frames = want.store.orders[0];
  ASSERT_EQ(frames.size(), 2u);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    EXPECT_EQ(frames[f].tick, want_frames[f].tick);
    EXPECT_EQ(Bits(frames[f].time), Bits(want_frames[f].time));
  }
  EXPECT_TRUE(SameBits(*frames[0].full, *want_frames[0].full));
  EXPECT_EQ(frames[1].ids, want_frames[1].ids);
  EXPECT_TRUE(SameBits(frames[1].changed, want_frames[1].changed));

  ASSERT_EQ(got->counters.size(), want.counters.size());
  ASSERT_EQ(got->gauges.size(), want.gauges.size());
  for (std::size_t i = 0; i < want.counters.size(); ++i) {
    EXPECT_EQ(Bits(got->counters[i].second), Bits(want.counters[i].second));
    EXPECT_EQ(Bits(got->gauges[i].second), Bits(want.gauges[i].second));
  }
}

}  // namespace
}  // namespace umicro::io
