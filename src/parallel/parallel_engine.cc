#include "parallel/parallel_engine.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "obs/scoped_timer.h"
#include "util/check.h"

namespace umicro::parallel {

ParallelEngineOptions ParallelEngineOptions::FromConfig(
    const core::EngineConfig& config) {
  ParallelEngineOptions options;
  options.sharded.umicro = config.umicro;
  options.sharded.num_shards = config.parallel.threads;
  options.sharded.merge_every = config.parallel.merge_every;
  options.sharded.queue_capacity = config.parallel.queue_capacity;
  options.sharded.producer_batch = config.parallel.producer_batch;
  switch (config.parallel.backpressure) {
    case core::QueueFullPolicy::kBlock:
      options.sharded.backpressure = BackpressurePolicy::kBlock;
      break;
    case core::QueueFullPolicy::kDropOldest:
      options.sharded.backpressure = BackpressurePolicy::kDropOldest;
      break;
    case core::QueueFullPolicy::kDropNewest:
      options.sharded.backpressure = BackpressurePolicy::kDropNewest;
      break;
  }
  options.sharded.degrade.enabled = config.parallel.degrade;
  options.sharded.supervisor.enabled = config.parallel.degrade;
  options.snapshot = config.snapshot;
  return options;
}

ParallelUMicroEngine::ParallelUMicroEngine(std::size_t dimensions,
                                           ParallelEngineOptions options)
    : options_(options),
      sharded_(dimensions, options.sharded),
      store_(options.snapshot.pyramid_alpha, options.snapshot.pyramid_l,
             options.snapshot.tiering),
      snapshot_micros_(
          &sharded_.metrics().GetHistogram("snapshot.take_micros")),
      snapshots_taken_(&sharded_.metrics().GetCounter("snapshot.taken")),
      snapshots_stored_(&sharded_.metrics().GetGauge("snapshot.stored")),
      snapshot_bytes_(&sharded_.metrics().GetGauge("snapshot.bytes")),
      snapshot_frames_(&sharded_.metrics().GetGauge("snapshot.frames")),
      snapshot_delta_ratio_(
          &sharded_.metrics().GetGauge("snapshot.delta_ratio")),
      snapshot_reconstructions_(
          &sharded_.metrics().GetCounter("snapshot.reconstructions")),
      snapshot_spills_(&sharded_.metrics().GetCounter("snapshot.spills")) {}

void ParallelUMicroEngine::PublishStoreMetrics() {
  const core::SnapshotTierStats stats = store_.TierStats();
  snapshot_bytes_->Set(static_cast<double>(stats.approx_bytes));
  snapshot_frames_->Set(static_cast<double>(stats.frames));
  snapshot_delta_ratio_->Set(stats.delta_ratio);
  if (stats.reconstructions > published_reconstructions_) {
    snapshot_reconstructions_->Increment(stats.reconstructions -
                                         published_reconstructions_);
    published_reconstructions_ = stats.reconstructions;
  }
  if (stats.spills > published_spills_) {
    snapshot_spills_->Increment(stats.spills - published_spills_);
    published_spills_ = stats.spills;
  }
}

void ParallelUMicroEngine::Process(const stream::UncertainPoint& point) {
  // Sharded replay can deliver out-of-order arrivals; the engine clock
  // must never rewind (snapshot times are inserted in increasing tick
  // order and decay is anchored to the newest time seen).
  last_timestamp_ = std::max(last_timestamp_, point.timestamp);
  sharded_.Process(point);
  if (options_.snapshot.snapshot_every > 0 &&
      ++since_snapshot_ >= options_.snapshot.snapshot_every) {
    const obs::ScopedTimer timer(snapshot_micros_);
    sharded_.Flush();
    const std::uint64_t tick = next_tick_++;
    if (sink_ == nullptr) {
      store_.Insert(tick, sharded_.GlobalSnapshot(last_timestamp_));
    } else {
      // The shared frame is a back-to-back copy of the merged view, not
      // GlobalSnapshot's own allocation: that one reuses the chunks the
      // merge just freed, and query threads read it 15-20% slower
      // (syndrift_sharded query_p50_us, 4-core host). One copy per merge
      // is noise next to the merge itself.
      const core::Snapshot merged = sharded_.GlobalSnapshot(last_timestamp_);
      auto frame = std::make_shared<const core::Snapshot>(merged);
      sink_->PublishSnapshot(tick, store_.OrderOf(tick), frame);
      store_.Insert(tick, std::move(frame));
    }
    since_snapshot_ = 0;
    snapshots_taken_->Increment();
    snapshots_stored_->Set(static_cast<double>(store_.TotalStored()));
    PublishStoreMetrics();
  }
}

void ParallelUMicroEngine::Flush() {
  sharded_.Flush();
  if (sink_ != nullptr && sharded_.points_processed() > 0) {
    sink_->PublishCurrent(std::make_shared<const core::Snapshot>(
        sharded_.GlobalSnapshot(last_timestamp_)));
  }
}

void ParallelUMicroEngine::AttachSnapshotSink(core::SnapshotSink* sink) {
  if (sink == sink_) return;  // idempotent: never double-prime a sink
  sink_ = sink;
  if (sink_ == nullptr) return;
  store_.PrimeSink(*sink_);
  if (sharded_.points_processed() > 0) Flush();
}

void ParallelUMicroEngine::ProcessBatch(
    std::span<const stream::UncertainPoint> points) {
  for (const auto& point : points) Process(point);
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
  state.store = store_.ExportState();
  state.next_tick = next_tick_;
  state.since_snapshot = since_snapshot_;
  state.last_timestamp = last_timestamp_;
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
  // Validate the store first: a retention-geometry mismatch must reject
  // the whole restore before any pipeline state is overwritten.
  std::string store_error;
  if (!store_.RestoreState(state.store, &store_error)) {
    std::fprintf(stderr, "engine restore rejected: %s\n",
                 store_error.c_str());
    return false;
  }
  if (!sharded_.RestorePipelineState(pipeline)) return false;
  next_tick_ = state.next_tick;
  since_snapshot_ = static_cast<std::size_t>(state.since_snapshot);
  last_timestamp_ = state.last_timestamp;
  sharded_.metrics().RestoreCells(state.counters, state.gauges);
  return true;
}

std::optional<core::HorizonClustering> ParallelUMicroEngine::ClusterRecent(
    double horizon, const core::MacroClusteringOptions& options) {
  if (sharded_.points_processed() == 0) return std::nullopt;
  sharded_.Flush();
  const core::Snapshot current = sharded_.GlobalSnapshot(last_timestamp_);
  auto result = core::ClusterOverHorizon(store_, current, horizon, options,
                                         &sharded_.metrics(),
                                         options_.sharded.umicro.decay_lambda);
  PublishStoreMetrics();
  return result;
}

}  // namespace umicro::parallel
