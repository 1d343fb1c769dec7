// Tests for the sharded engine facade: automatic snapshots on the merged
// global state and horizon queries over them.

#include "parallel/parallel_engine.h"

#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "io/state_io.h"
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

TEST(ParallelEngineTest, RejectedRestoreLeavesTheEngineUntouched) {
  // Regression: the store used to be restored before the pipeline
  // rejected a shard-count mismatch, so a failed restore still replaced
  // the victim's retention rings.
  ParallelEngineOptions three = TwoShardOptions();
  three.sharded.num_shards = 3;
  ParallelUMicroEngine exporter(2, three);
  const stream::Dataset long_stream = PhasedBlobs(8000, 17);
  for (const auto& point : long_stream.points()) exporter.Process(point);
  const core::EngineState state = exporter.ExportEngineState();

  ParallelUMicroEngine victim(2, TwoShardOptions());
  const stream::Dataset short_stream = PhasedBlobs(2000, 19);
  for (const auto& point : short_stream.points()) victim.Process(point);
  const std::size_t stored = victim.store().TotalStored();
  ASSERT_NE(stored, exporter.store().TotalStored());
  EXPECT_FALSE(victim.RestoreEngineState(state));
  EXPECT_EQ(victim.store().TotalStored(), stored);
  EXPECT_EQ(victim.points_processed(), 2000u);
}

/// `state`'s checkpoint text with its empty "global" section replaced by
/// `section` (a count line plus cluster lines), re-enveloped: the layout
/// sharded checkpoints had while the merged view was persisted.
std::string WithGlobalSection(const core::EngineState& state,
                              const std::string& section) {
  const std::string text = io::EngineStateToString(state);
  std::string body = text.substr(text.find('\n') + 1);
  const std::string empty = "\nglobal 0\n";
  const std::size_t at = body.find(empty);
  EXPECT_NE(at, std::string::npos);
  body.replace(at + 1, empty.size() - 1, section);
  return io::ChecksummedText(
      "ucheckpoint", 2, [&body](std::ostringstream& out) { out << body; });
}

TEST(ParallelEngineTest, CheckpointsCarryingTheMergedViewStillRecover) {
  ParallelUMicroEngine exporter(2, TwoShardOptions());
  const stream::Dataset dataset = PhasedBlobs(3000, 29);
  for (const auto& point : dataset.points()) exporter.Process(point);
  const core::EngineState state = exporter.ExportEngineState();
  const core::LabeledFrame& view = exporter.GlobalClusters();
  ASSERT_FALSE(view.empty());
  const std::string dump = io::MicroClustersToString(view, 2);
  const std::string old_text = WithGlobalSection(
      state, "global " + std::to_string(view.size()) + "\n" +
                 dump.substr(dump.find('\n') + 1));

  const std::optional<core::EngineState> parsed =
      io::ParseEngineState(old_text);
  ASSERT_TRUE(parsed.has_value());
  ParallelUMicroEngine restored(2, TwoShardOptions());
  ASSERT_TRUE(restored.RestoreEngineState(*parsed));
  EXPECT_TRUE(restored.GlobalClusters().empty());  // rebuilt, not restored
  restored.Flush();
  EXPECT_EQ(io::MicroClustersToString(restored.GlobalClusters(), 2), dump);

  // Re-exported, the checkpoint is the current format: no global rows.
  core::EngineState original = state;
  core::EngineState again = restored.ExportEngineState();
  for (core::EngineState* s : {&original, &again}) {
    s->counters.clear();
    s->gauges.clear();
  }
  EXPECT_EQ(io::EngineStateToString(again),
            io::EngineStateToString(original));
}

TEST(ParallelEngineTest, HostileGlobalCountIsRejected) {
  ParallelUMicroEngine exporter(2, TwoShardOptions());
  const stream::Dataset dataset = PhasedBlobs(600, 31);
  for (const auto& point : dataset.points()) exporter.Process(point);
  const std::string hostile = WithGlobalSection(
      exporter.ExportEngineState(),
      "global " + std::to_string(io::kMaxClusters) + "\n");
  EXPECT_FALSE(io::ParseEngineState(hostile).has_value());
}

TEST(ParallelEngineTest, OneMergePerCadencePoint) {
  // With merge_every == snapshot_every the merge_every merge and the
  // cadence snapshot fall on the same point; the snapshot must find the
  // view current and not rebuild it again, and the state must be the
  // one a cadence-only engine reaches.
  constexpr std::size_t kCadence = 8192;
  constexpr std::size_t kTicks = 3;
  ParallelEngineOptions both = TwoShardOptions();
  both.sharded.global_budget = 30;  // over budget: every merge reconciles
  both.snapshot.snapshot_every = kCadence;
  both.sharded.merge_every = kCadence;
  ParallelEngineOptions cadence_only = both;
  cadence_only.sharded.merge_every = 0;
  ParallelUMicroEngine a(2, both);
  ParallelUMicroEngine b(2, cadence_only);
  const stream::Dataset dataset = PhasedBlobs(kTicks * kCadence, 23);
  for (const auto& point : dataset.points()) {
    a.Process(point);
    b.Process(point);
  }
  core::EngineState state_a = a.ExportEngineState();
  core::EngineState state_b = b.ExportEngineState();
  for (ParallelUMicroEngine* engine : {&a, &b}) {
    obs::MetricsRegistry& metrics = engine->metrics();
    EXPECT_EQ(metrics.GetCounter("parallel.merges").value(), kTicks);
    EXPECT_EQ(metrics.GetHistogram("parallel.rebuild_micros").count(),
              kTicks);
    EXPECT_GT(metrics.GetCounter("parallel.reconcile_merges").value(), 0u);
  }
  for (core::EngineState* state : {&state_a, &state_b}) {
    state->counters.clear();
    state->gauges.clear();
  }
  EXPECT_EQ(io::EngineStateToString(state_a),
            io::EngineStateToString(state_b));
}

TEST(ParallelEngineTest, FromConfigMapsTheParallelSlice) {
  core::EngineConfig config;
  config.umicro.num_micro_clusters = 17;
  config.snapshot.snapshot_every = 300;
  config.parallel.threads = 3;
  config.parallel.merge_every = 99;
  config.parallel.queue_capacity = 12;
  config.parallel.producer_batch = 8;
  config.parallel.backpressure = core::BackpressurePolicy::kDropOldest;
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
