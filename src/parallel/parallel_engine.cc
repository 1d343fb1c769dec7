#include "parallel/parallel_engine.h"

#include <utility>

namespace umicro::parallel {

ParallelEngineOptions ParallelEngineOptions::FromConfig(
    const core::EngineConfig& config) {
  ParallelEngineOptions options;
  options.sharded.umicro = config.umicro;
  options.sharded.num_shards = config.parallel.threads;
  options.sharded.merge_every = config.parallel.merge_every;
  options.sharded.queue_capacity = config.parallel.queue_capacity;
  options.sharded.producer_batch = config.parallel.producer_batch;
  options.sharded.backpressure = config.parallel.backpressure;
  options.sharded.degrade.enabled = config.parallel.degrade;
  options.sharded.supervisor.enabled = config.parallel.degrade;
  options.snapshot = config.snapshot;
  return options;
}

ParallelUMicroEngine::ParallelUMicroEngine(std::size_t dimensions,
                                           ParallelEngineOptions options)
    : sharded_(dimensions, options.sharded), timeline_(options.snapshot) {
  timeline_.AttachMetrics(&sharded_.metrics());
}

void ParallelUMicroEngine::Process(const stream::UncertainPoint& point) {
  sharded_.Process(point);
  if (!timeline_.Advance(point.timestamp)) return;
  // The snapshot.take_micros timing includes the drain + rebuild, when
  // no merge_every merge on this point already made the view current.
  timeline_.TakeSnapshot([this](double time) {
    sharded_.Flush();
    return sharded_.GlobalSnapshot(time);
  });
}

void ParallelUMicroEngine::ProcessBatch(
    std::span<const stream::UncertainPoint> points) {
  for (const auto& point : points) Process(point);
}

void ParallelUMicroEngine::Flush() {
  sharded_.Flush();
  if (sharded_.points_processed() == 0) return;
  timeline_.PublishCurrent(
      [this](double time) { return sharded_.GlobalSnapshot(time); });
}

void ParallelUMicroEngine::AttachSnapshotSink(core::SnapshotSink* sink) {
  if (timeline_.AttachSink(sink) && sharded_.points_processed() > 0) Flush();
}

core::EngineState ParallelUMicroEngine::ExportEngineState() {
  core::EngineState state;
  state.engine_kind = "sharded";
  state.dimensions = sharded_.dimensions();
  // ExportPipelineState drains + merges, so the shard residuals and the
  // global view are consistent with the stream clock captured below.
  ShardedPipelineState pipeline = sharded_.ExportPipelineState();
  state.shard_states = std::move(pipeline.shard_states);
  state.global_clusters = std::move(pipeline.global_clusters);
  state.points_ingested = pipeline.points_ingested;
  state.next_round_robin = pipeline.next_round_robin;
  timeline_.ExportState(state);
  state.counters = sharded_.metrics().CounterCells();
  state.gauges = sharded_.metrics().GaugeCells();
  return state;
}

bool ParallelUMicroEngine::RestoreEngineState(const core::EngineState& state) {
  if (state.engine_kind != "sharded") return false;
  if (state.dimensions != sharded_.dimensions()) return false;
  ShardedPipelineState pipeline;
  pipeline.shard_states = state.shard_states;
  pipeline.global_clusters = state.global_clusters;
  pipeline.points_ingested = state.points_ingested;
  pipeline.next_round_robin = state.next_round_robin;
  // Validate the pipeline half before the timeline restores its store
  // and clock: a shard-count or dimension mismatch must reject the whole
  // restore before anything is overwritten.
  if (!sharded_.Accepts(pipeline)) return false;
  if (!timeline_.RestoreState(state)) return false;
  sharded_.RestorePipelineState(pipeline);
  sharded_.metrics().RestoreCells(state.counters, state.gauges);
  return true;
}

std::optional<core::HorizonClustering> ParallelUMicroEngine::ClusterRecent(
    double horizon, const core::MacroClusteringOptions& options) {
  if (sharded_.points_processed() == 0) return std::nullopt;
  sharded_.Flush();
  return timeline_.ClusterRecent(
      sharded_.GlobalSnapshot(timeline_.last_timestamp()), horizon, options,
      sharded_.options().umicro.decay_lambda);
}

}  // namespace umicro::parallel
