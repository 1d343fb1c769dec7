// Tests for ClusterOverHorizon and UMicroEngine.

#include "core/engine.h"

#include <cmath>
#include <span>

#include <gtest/gtest.h>

#include "core/engine_core.h"
#include "core/horizon.h"
#include "io/state_io.h"
#include "stream/dataset.h"
#include "util/random.h"

namespace umicro::core {
namespace {

using stream::UncertainPoint;

/// Two well-separated blobs; blob 1 only appears in the second half.
stream::Dataset PhasedBlobs(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  stream::Dataset dataset(2);
  for (std::size_t i = 0; i < n; ++i) {
    const bool second_half = i >= n / 2;
    const int cls = second_half && rng.NextDouble() < 0.5 ? 1 : 0;
    dataset.Add(UncertainPoint({cls * 20.0 + rng.Gaussian(0.0, 0.5),
                                rng.Gaussian(0.0, 0.5)},
                               {0.1, 0.1}, static_cast<double>(i), cls));
  }
  return dataset;
}

TEST(ClusterOverHorizonTest, EmptyStoreReturnsNullopt) {
  SnapshotStore store(2, 2);
  Snapshot current;
  current.time = 100.0;
  MacroClusteringOptions options;
  EXPECT_FALSE(ClusterOverHorizon(store, current, 50.0, options)
                   .has_value());
}

TEST(ClusterOverHorizonTest, RecoversWindowClustering) {
  UMicroOptions uopt;
  uopt.num_micro_clusters = 30;
  UMicro algorithm(2, uopt);
  SnapshotStore store(2, 3);
  const stream::Dataset dataset = PhasedBlobs(8000, 3);

  std::uint64_t tick = 0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    algorithm.Process(dataset[i]);
    if ((i + 1) % 100 == 0) {
      store.Insert(++tick, algorithm.TakeSnapshot(dataset[i].timestamp));
    }
  }
  const Snapshot current = algorithm.TakeSnapshot(7999.0);

  MacroClusteringOptions macro;
  macro.k = 2;
  const auto result = ClusterOverHorizon(store, current, 2000.0, macro);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->realized_horizon, 2000.0, 300.0);
  ASSERT_EQ(result->macro.centroids.size(), 2u);
  // The window sits entirely in the second phase: both blobs present.
  bool near_zero = false;
  bool near_twenty = false;
  for (const auto& centroid : result->macro.centroids) {
    if (std::abs(centroid[0]) < 3.0) near_zero = true;
    if (std::abs(centroid[0] - 20.0) < 3.0) near_twenty = true;
  }
  EXPECT_TRUE(near_zero);
  EXPECT_TRUE(near_twenty);
}

TEST(UMicroEngineTest, ProcessesAndSnapshots) {
  EngineConfig options;
  options.snapshot.snapshot_every = 50;
  UMicroEngine engine(2, options);
  const stream::Dataset dataset = PhasedBlobs(1000, 5);
  for (const auto& point : dataset.points()) engine.Process(point);
  EXPECT_EQ(engine.points_processed(), 1000u);
  EXPECT_GT(engine.store().TotalStored(), 0u);
  // 1000/50 = 20 snapshot ticks; pyramidal retention keeps most of them
  // at this scale but never more.
  EXPECT_LE(engine.store().TotalStored(), 20u);
}

TEST(UMicroEngineTest, ProcessMetricsMatchPointsProcessed) {
  EngineConfig options;
  options.snapshot.snapshot_every = 50;
  UMicroEngine engine(2, options);
  const stream::Dataset dataset = PhasedBlobs(1000, 5);
  for (const auto& point : dataset.points()) engine.Process(point);

  obs::MetricsRegistry& metrics = engine.metrics();
  EXPECT_EQ(metrics.GetCounter("umicro.points").value(),
            engine.points_processed());
  EXPECT_EQ(metrics.GetHistogram("umicro.process_micros").count(),
            engine.points_processed());
  // Every point is either absorbed into an existing cluster or creates
  // a new one.
  EXPECT_EQ(metrics.GetCounter("umicro.absorbed").value() +
                metrics.GetCounter("umicro.created").value(),
            engine.points_processed());
  // 1000 points / 50 = 20 snapshot ticks.
  EXPECT_EQ(metrics.GetCounter("snapshot.taken").value(), 20u);
  EXPECT_EQ(metrics.GetHistogram("snapshot.take_micros").count(), 20u);
  EXPECT_EQ(metrics.GetGauge("snapshot.stored").value(),
            static_cast<double>(engine.store().TotalStored()));

  // Horizon queries are counted too.
  MacroClusteringOptions macro;
  macro.k = 2;
  (void)engine.ClusterRecent(500.0, macro);
  EXPECT_EQ(metrics.GetCounter("horizon.queries").value(), 1u);
  EXPECT_EQ(metrics.GetHistogram("horizon.macro_micros").count(), 1u);
}

TEST(UMicroEngineTest, ClusterRecentBeforeAnyDataIsNull) {
  UMicroEngine engine(2, EngineConfig{});
  MacroClusteringOptions macro;
  EXPECT_FALSE(engine.ClusterRecent(100.0, macro).has_value());
}

TEST(UMicroEngineTest, ClusterRecentSeesOnlyRecentRegime) {
  // Blob 1 exists only in the second half; a short-horizon query must
  // see it, and the window mass must be about the horizon length.
  EngineConfig options;
  options.snapshot.snapshot_every = 100;
  options.umicro.num_micro_clusters = 30;
  UMicroEngine engine(2, options);
  const stream::Dataset dataset = PhasedBlobs(8000, 7);
  for (const auto& point : dataset.points()) engine.Process(point);

  MacroClusteringOptions macro;
  macro.k = 2;
  const auto result = engine.ClusterRecent(1000.0, macro);
  ASSERT_TRUE(result.has_value());
  double mass = 0.0;
  for (const auto& state : result->window) mass += state.ecf.weight();
  // Merge re-attribution can overcount somewhat (see DESIGN.md 4b.4),
  // but the window must stay an order of magnitude below the full
  // 8000-point stream.
  EXPECT_GT(mass, 0.5 * result->realized_horizon);
  EXPECT_LE(mass, 1.5 * result->realized_horizon);
  EXPECT_LT(mass, 2000.0);
}

TEST(UMicroEngineTest, LongHorizonCoversWholeStream) {
  EngineConfig options;
  options.snapshot.snapshot_every = 25;
  UMicroEngine engine(1, options);
  util::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    engine.Process(UncertainPoint({rng.Gaussian(0.0, 1.0)}, {0.1},
                                  static_cast<double>(i), 0));
  }
  MacroClusteringOptions macro;
  macro.k = 1;
  // A horizon longer than the stream matches the earliest snapshot.
  const auto result = engine.ClusterRecent(1e9, macro);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->realized_horizon, 1000.0);
}

TEST(UMicroEngineTest, OutOfOrderTimestampsDoNotRewindClock) {
  // Regression: the engine used to copy every point's timestamp into its
  // clock verbatim, so a late (out-of-order) arrival rewound it. The
  // current snapshot taken by ClusterRecent then carried an older time
  // than stored snapshots and SubtractSnapshot's older.time <=
  // current.time contract blew up. Sharded replay makes such arrival
  // patterns routine; the clock must be monotone.
  EngineConfig options;
  options.snapshot.snapshot_every = 10;
  options.umicro.num_micro_clusters = 10;
  options.umicro.decay_lambda = 0.01;
  UMicroEngine engine(1, options);
  util::Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    // Every 10th point arrives with a stale timestamp -- including the
    // final point, which lands right before an automatic snapshot.
    const double ts = (i % 10 == 9) ? i - 50.0 : static_cast<double>(i);
    engine.Process(
        UncertainPoint({rng.Gaussian(0.0, 1.0)}, {0.1}, ts, 0));
  }
  MacroClusteringOptions macro;
  macro.k = 1;
  const auto result = engine.ClusterRecent(100.0, macro);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->realized_horizon, 0.0);
  // Snapshot times must be monotone: the latest stored snapshot may not
  // sit in the future of the engine clock (the stream's max timestamp).
  const auto latest = engine.store().FindAtOrBefore(1e18);
  ASSERT_TRUE(latest.has_value());
  EXPECT_LE(latest->time, 198.0);
}

TEST(EngineCoreTest, BatchCadenceMatchesProcessAfterPastDueRestore) {
  // Regression: a restored clock already past due (since_snapshot >=
  // snapshot_every, e.g. recovery with a smaller cadence) underflowed
  // the batch path's chunking, which then snapshotted after the whole
  // batch instead of after the first point as Process does.
  const stream::Dataset dataset = PhasedBlobs(154, 23);
  const std::span<const UncertainPoint> points = dataset.points();
  UMicroOptions umicro;
  umicro.num_micro_clusters = 10;
  SnapshotPolicy coarse;
  coarse.snapshot_every = 100;
  EngineCore writer(2, umicro, coarse);
  for (const auto& point : points.first(90)) writer.Process(point);
  const EngineState state = writer.ExportState();
  ASSERT_EQ(state.since_snapshot, 90u);

  SnapshotPolicy fine = coarse;
  fine.snapshot_every = 64;
  EngineCore by_point(2, umicro, fine);
  EngineCore by_batch(2, umicro, fine);
  ASSERT_TRUE(by_point.RestoreState(state));
  ASSERT_TRUE(by_batch.RestoreState(state));
  for (const auto& point : points.subspan(90)) by_point.Process(point);
  by_batch.ProcessBatch(points.subspan(90));
  EXPECT_EQ(by_point.ExportState().since_snapshot, 63u);
  EXPECT_EQ(io::EngineStateToString(by_batch.ExportState()),
            io::EngineStateToString(by_point.ExportState()));
}

}  // namespace
}  // namespace umicro::core
