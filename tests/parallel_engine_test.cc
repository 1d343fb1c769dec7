// Tests for the sharded engine facade: automatic snapshots on the merged
// global state and horizon queries over them.

#include "parallel/parallel_engine.h"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/config.h"
#include "obs/metrics.h"
#include "serve/replica.h"
#include "stream/dataset.h"
#include "util/random.h"

namespace umicro::parallel {
namespace {

using stream::UncertainPoint;

/// Two well-separated blobs; blob 1 only appears in the second half
/// (mirrors the sequential engine test fixture).
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

ParallelEngineOptions TwoShardOptions() {
  ParallelEngineOptions options;
  options.sharded.num_shards = 2;
  options.sharded.umicro.num_micro_clusters = 30;
  // Budget for both shards' clusters: ids stay stable across snapshots,
  // which keeps the subtractive horizon extraction sharp.
  options.sharded.global_budget = 60;
  options.sharded.merge_every = 0;  // snapshot cadence drives the merges
  options.snapshot.snapshot_every = 500;
  return options;
}

TEST(ParallelEngineTest, ProcessesAndSnapshots) {
  ParallelUMicroEngine engine(2, TwoShardOptions());
  const stream::Dataset dataset = PhasedBlobs(4000, 5);
  for (const auto& point : dataset.points()) engine.Process(point);
  EXPECT_EQ(engine.points_processed(), 4000u);
  EXPECT_GT(engine.store().TotalStored(), 0u);
  EXPECT_LE(engine.store().TotalStored(), 8u);  // 4000/500 ticks
}

TEST(ParallelEngineTest, ClusterRecentBeforeAnyDataIsNull) {
  ParallelUMicroEngine engine(2, TwoShardOptions());
  core::MacroClusteringOptions macro;
  EXPECT_FALSE(engine.ClusterRecent(100.0, macro).has_value());
}

TEST(ParallelEngineTest, ClusterRecentSeesRecentRegime) {
  ParallelUMicroEngine engine(2, TwoShardOptions());
  const stream::Dataset dataset = PhasedBlobs(8000, 7);
  for (const auto& point : dataset.points()) engine.Process(point);

  core::MacroClusteringOptions macro;
  macro.k = 2;
  const auto result = engine.ClusterRecent(1000.0, macro);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->realized_horizon, 1000.0, 600.0);
  ASSERT_EQ(result->macro.centroids.size(), 2u);
  // The window sits in the second phase: both blobs must be visible.
  bool near_zero = false;
  bool near_twenty = false;
  for (const auto& centroid : result->macro.centroids) {
    if (std::abs(centroid[0]) < 5.0) near_zero = true;
    if (std::abs(centroid[0] - 20.0) < 5.0) near_twenty = true;
  }
  EXPECT_TRUE(near_zero);
  EXPECT_TRUE(near_twenty);
  // Window mass of the right order (cross-shard duplicates make the
  // subtraction rougher than in the sequential engine, but it must stay
  // far below the full stream).
  double mass = 0.0;
  for (const auto& state : result->window) mass += state.ecf.weight();
  EXPECT_GT(mass, 0.0);
  EXPECT_LT(mass, 4000.0);
}

TEST(ParallelEngineTest, MetricsReportMergesAndShards) {
  ParallelUMicroEngine engine(2, TwoShardOptions());
  const stream::Dataset dataset = PhasedBlobs(2000, 9);
  for (const auto& point : dataset.points()) engine.Process(point);
  engine.Flush();
  obs::MetricsRegistry& metrics = engine.metrics();
  EXPECT_EQ(metrics.GetCounter("parallel.points_ingested").value(), 2000u);
  // One merge per snapshot tick + the final flush.
  EXPECT_GE(metrics.GetCounter("parallel.merges").value(), 4u);
  EXPECT_GT(metrics.GetGauge("parallel.global_clusters").value(), 0.0);
  EXPECT_GT(metrics.GetHistogram("parallel.merge_micros").count(), 0u);
  // Both shards saw work, and together they saw every point.
  const std::uint64_t shard_points =
      metrics.GetCounter("parallel.shard0.points").value() +
      metrics.GetCounter("parallel.shard1.points").value();
  EXPECT_EQ(shard_points, 2000u);
}

TEST(ParallelEngineTest, ProcessMetricsMatchPointsProcessed) {
  // The engine-level contract: the pipeline ingest counter and the
  // shards' shared umicro.points counter both equal points_processed()
  // once the pipeline is drained.
  ParallelUMicroEngine engine(2, TwoShardOptions());
  const stream::Dataset dataset = PhasedBlobs(1500, 11);
  for (const auto& point : dataset.points()) engine.Process(point);
  engine.Flush();
  obs::MetricsRegistry& metrics = engine.metrics();
  EXPECT_EQ(metrics.GetCounter("parallel.points_ingested").value(),
            engine.points_processed());
  EXPECT_EQ(metrics.GetCounter("umicro.points").value(),
            engine.points_processed());
  // Workers drain their queues through ProcessBatch, so the per-batch
  // ingest histogram is the one that fills up.
  EXPECT_GT(metrics.GetHistogram("umicro.batch_micros").count(), 0u);
  EXPECT_GT(metrics.GetHistogram("snapshot.take_micros").count(), 0u);
}

TEST(ParallelEngineTest, ReattachingTheSameSinkNeverDoublePrimes) {
  ParallelUMicroEngine engine(2, TwoShardOptions());
  const stream::Dataset dataset = PhasedBlobs(2000, 13);
  for (const auto& point : dataset.points()) engine.Process(point);
  serve::SnapshotReadReplica replica(TwoShardOptions().snapshot, 0.0);
  engine.AttachSnapshotSink(&replica);
  const std::uint64_t primed = replica.publish_seq();
  EXPECT_GT(primed, 0u);
  // The second attach of the SAME sink is a no-op: no re-priming, no
  // duplicate frames in the replica's rings.
  engine.AttachSnapshotSink(&replica);
  EXPECT_EQ(replica.publish_seq(), primed);
}

TEST(ParallelEngineTest, FromConfigMapsTheParallelSlice) {
  core::EngineConfig config;
  config.umicro.num_micro_clusters = 17;
  config.snapshot.snapshot_every = 300;
  config.parallel.threads = 3;
  config.parallel.merge_every = 99;
  config.parallel.queue_capacity = 12;
  config.parallel.producer_batch = 8;
  config.parallel.backpressure = core::QueueFullPolicy::kDropOldest;
  config.parallel.degrade = true;
  const ParallelEngineOptions options =
      ParallelEngineOptions::FromConfig(config);
  EXPECT_EQ(options.sharded.umicro.num_micro_clusters, 17u);
  EXPECT_EQ(options.sharded.num_shards, 3u);
  EXPECT_EQ(options.sharded.merge_every, 99u);
  EXPECT_EQ(options.sharded.queue_capacity, 12u);
  EXPECT_EQ(options.sharded.producer_batch, 8u);
  EXPECT_EQ(options.sharded.backpressure, BackpressurePolicy::kDropOldest);
  EXPECT_TRUE(options.sharded.degrade.enabled);
  EXPECT_TRUE(options.sharded.supervisor.enabled);
  EXPECT_EQ(options.snapshot.snapshot_every, 300u);
}

}  // namespace
}  // namespace umicro::parallel
