#include "core/engine_core.h"

#include <cstdio>
#include <string>
#include <utility>

namespace umicro::core {

SnapshotTimeline::SnapshotTimeline(const SnapshotPolicy& policy)
    : snapshot_every_(policy.snapshot_every),
      store_(policy.pyramid_alpha, policy.pyramid_l, policy.tiering) {}

void SnapshotTimeline::AttachMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  const bool on = registry != nullptr;
  take_micros_ =
      on ? &registry->GetHistogram("snapshot.take_micros") : nullptr;
  taken_ = on ? &registry->GetCounter("snapshot.taken") : nullptr;
  stored_ = on ? &registry->GetGauge("snapshot.stored") : nullptr;
  bytes_ = on ? &registry->GetGauge("snapshot.bytes") : nullptr;
  frames_ = on ? &registry->GetGauge("snapshot.frames") : nullptr;
  delta_ratio_ = on ? &registry->GetGauge("snapshot.delta_ratio") : nullptr;
  reconstructions_ =
      on ? &registry->GetCounter("snapshot.reconstructions") : nullptr;
}

void SnapshotTimeline::PublishStoreMetrics() {
  if (metrics_ == nullptr) return;
  const SnapshotTierStats stats = store_.TierStats();
  bytes_->Set(static_cast<double>(stats.approx_bytes));
  frames_->Set(static_cast<double>(stats.frames));
  delta_ratio_->Set(stats.delta_ratio);
  if (stats.reconstructions > published_reconstructions_) {
    reconstructions_->Increment(stats.reconstructions -
                                published_reconstructions_);
    published_reconstructions_ = stats.reconstructions;
  }
}

void SnapshotTimeline::Commit(Snapshot frame) {
  const std::uint64_t tick = next_tick_++;
  // One immutable frame: the store's ring head and the sink's history
  // hold the same object.
  auto shared = std::make_shared<const Snapshot>(std::move(frame));
  if (sink_ != nullptr) sink_->PublishSnapshot(tick, shared);
  store_.Insert(tick, std::move(shared));
  since_snapshot_ = 0;
  if (metrics_ == nullptr) return;
  taken_->Increment();
  stored_->Set(static_cast<double>(store_.TotalStored()));
  PublishStoreMetrics();
}

bool SnapshotTimeline::AttachSink(SnapshotSink* sink) {
  if (sink == sink_) return false;
  sink_ = sink;
  if (sink_ == nullptr) return false;
  store_.PrimeSink(*sink_);
  return true;
}

std::optional<HorizonClustering> SnapshotTimeline::ClusterRecent(
    const Snapshot& current, double horizon,
    const MacroClusteringOptions& options, double decay_lambda) {
  auto result = ClusterOverHorizon(store_, current, horizon, options,
                                   metrics_, decay_lambda);
  // Horizon queries materialize frames (delta walks); surface the
  // reconstructions they counted.
  PublishStoreMetrics();
  return result;
}

void SnapshotTimeline::ExportState(EngineState& state) const {
  state.store = store_.ExportState();
  state.next_tick = next_tick_;
  state.since_snapshot = since_snapshot_;
  state.last_timestamp = last_timestamp_;
}

bool SnapshotTimeline::RestoreState(const EngineState& state) {
  std::string store_error;
  if (!store_.RestoreState(state.store, &store_error)) {
    std::fprintf(stderr, "engine restore rejected: %s\n",
                 store_error.c_str());
    return false;
  }
  next_tick_ = state.next_tick;
  since_snapshot_ = static_cast<std::size_t>(state.since_snapshot);
  last_timestamp_ = state.last_timestamp;
  return true;
}

EngineCore::EngineCore(std::size_t dimensions, const UMicroOptions& umicro,
                       const SnapshotPolicy& snapshot)
    : online_(dimensions, umicro), timeline_(snapshot) {}

void EngineCore::AttachMetrics(obs::MetricsRegistry* registry) {
  online_.AttachMetrics(registry);
  timeline_.AttachMetrics(registry);
}

void EngineCore::TakeCadenceSnapshot() {
  timeline_.TakeSnapshot(
      [this](double time) { return online_.TakeSnapshot(time); });
}

void EngineCore::Process(const stream::UncertainPoint& point) {
  online_.Process(point);
  if (timeline_.Advance(point.timestamp)) TakeCadenceSnapshot();
}

void EngineCore::ProcessBatch(
    std::span<const stream::UncertainPoint> points) {
  while (!points.empty()) {
    const auto chunk =
        points.first(std::min(points.size(), timeline_.PointsUntilDue()));
    online_.ProcessBatch(chunk);
    bool due = false;
    for (const auto& point : chunk) due = timeline_.Advance(point.timestamp);
    if (due) TakeCadenceSnapshot();
    points = points.subspan(chunk.size());
  }
}

std::optional<HorizonClustering> EngineCore::ClusterRecent(
    double horizon, const MacroClusteringOptions& options) {
  if (online_.points_processed() == 0) return std::nullopt;
  return timeline_.ClusterRecent(
      online_.TakeSnapshot(timeline_.last_timestamp()), horizon, options,
      online_.options().decay_lambda);
}

void EngineCore::Flush() {
  if (online_.points_processed() == 0) return;
  timeline_.PublishCurrent(
      [this](double time) { return online_.TakeSnapshot(time); });
}

void EngineCore::AttachSnapshotSink(SnapshotSink* sink) {
  if (timeline_.AttachSink(sink)) Flush();
}

EngineState EngineCore::ExportState() const {
  EngineState state;
  state.engine_kind = "umicro";
  state.dimensions = online_.dimensions();
  state.shard_states.push_back(online_.ExportState());
  timeline_.ExportState(state);
  return state;
}

bool EngineCore::RestoreState(const EngineState& state) {
  if (state.engine_kind != "umicro") return false;
  if (state.dimensions != online_.dimensions()) return false;
  if (state.shard_states.size() != 1) return false;
  // The timeline restores first: a store geometry mismatch (alpha/l
  // drift between writer and reader) must leave the whole core
  // untouched, not just the retention rings.
  if (!timeline_.RestoreState(state)) return false;
  online_.RestoreState(state.shard_states[0]);
  return true;
}

}  // namespace umicro::core
