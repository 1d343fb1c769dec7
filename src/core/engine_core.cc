#include "core/engine_core.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "obs/scoped_timer.h"

namespace umicro::core {

EngineCore::EngineCore(std::size_t dimensions, const EngineOptions& options)
    : options_(options),
      online_(dimensions, options.umicro),
      store_(options.snapshot.pyramid_alpha, options.snapshot.pyramid_l,
             options.snapshot.tiering) {}

void EngineCore::AttachMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  online_.AttachMetrics(registry);
  if (registry != nullptr) {
    snapshot_micros_ = &registry->GetHistogram("snapshot.take_micros");
    snapshots_taken_ = &registry->GetCounter("snapshot.taken");
    snapshots_stored_ = &registry->GetGauge("snapshot.stored");
    snapshot_bytes_ = &registry->GetGauge("snapshot.bytes");
    snapshot_frames_ = &registry->GetGauge("snapshot.frames");
    snapshot_delta_ratio_ = &registry->GetGauge("snapshot.delta_ratio");
    snapshot_reconstructions_ = &registry->GetCounter("snapshot.reconstructions");
    snapshot_spills_ = &registry->GetCounter("snapshot.spills");
  } else {
    snapshot_micros_ = nullptr;
    snapshots_taken_ = nullptr;
    snapshots_stored_ = nullptr;
    snapshot_bytes_ = nullptr;
    snapshot_frames_ = nullptr;
    snapshot_delta_ratio_ = nullptr;
    snapshot_reconstructions_ = nullptr;
    snapshot_spills_ = nullptr;
  }
}

void EngineCore::PublishStoreMetrics() {
  if (snapshot_bytes_ == nullptr) return;
  const SnapshotTierStats stats = store_.TierStats();
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

void EngineCore::TakeCadenceSnapshot() {
  const obs::ScopedTimer timer(snapshot_micros_);
  const std::uint64_t tick = next_tick_++;
  if (sink_ == nullptr) {
    store_.Insert(tick, online_.TakeSnapshot(last_timestamp_));
  } else {
    // One immutable frame: the store's ring head and the sink's ring
    // hold the same object.
    auto frame = std::make_shared<const Snapshot>(
        online_.TakeSnapshot(last_timestamp_));
    sink_->PublishSnapshot(tick, store_.OrderOf(tick), frame);
    store_.Insert(tick, std::move(frame));
  }
  since_snapshot_ = 0;
  if (snapshots_taken_ != nullptr) snapshots_taken_->Increment();
  if (snapshots_stored_ != nullptr) {
    snapshots_stored_->Set(static_cast<double>(store_.TotalStored()));
  }
  PublishStoreMetrics();
}

void EngineCore::Process(const stream::UncertainPoint& point) {
  online_.Process(point);
  // Out-of-order arrivals (merged shard replays, log replays) must not
  // rewind the engine clock: SnapshotStore::Insert requires increasing
  // tick times and the decay anchor is the newest time seen, so the
  // timestamp is clamped to be monotone.
  last_timestamp_ = std::max(last_timestamp_, point.timestamp);
  if (options_.snapshot.snapshot_every > 0 &&
      ++since_snapshot_ >= options_.snapshot.snapshot_every) {
    TakeCadenceSnapshot();
  }
}

void EngineCore::ProcessBatch(
    std::span<const stream::UncertainPoint> points) {
  const std::size_t every = options_.snapshot.snapshot_every;
  std::size_t offset = 0;
  while (offset < points.size()) {
    std::size_t take = points.size() - offset;
    if (every > 0) take = std::min(take, every - since_snapshot_);
    const auto chunk = points.subspan(offset, take);
    online_.ProcessBatch(chunk);
    for (const auto& point : chunk) {
      last_timestamp_ = std::max(last_timestamp_, point.timestamp);
    }
    offset += take;
    if (every > 0) {
      since_snapshot_ += take;
      if (since_snapshot_ >= every) TakeCadenceSnapshot();
    }
  }
}

std::optional<HorizonClustering> EngineCore::ClusterRecent(
    double horizon, const MacroClusteringOptions& options) {
  if (online_.points_processed() == 0) return std::nullopt;
  const Snapshot current = online_.TakeSnapshot(last_timestamp_);
  auto result = ClusterOverHorizon(store_, current, horizon, options, metrics_,
                                   options_.umicro.decay_lambda);
  // Horizon queries materialize frames (delta walks, spill loads);
  // surface the store counters they advanced.
  PublishStoreMetrics();
  return result;
}

void EngineCore::Flush() {
  if (sink_ != nullptr && online_.points_processed() > 0) {
    sink_->PublishCurrent(
        std::make_shared<const Snapshot>(online_.TakeSnapshot(last_timestamp_)));
  }
}

void EngineCore::AttachSnapshotSink(SnapshotSink* sink) {
  if (sink == sink_) return;  // idempotent: never double-prime a sink
  sink_ = sink;
  if (sink_ == nullptr) return;
  store_.PrimeSink(*sink_);
  Flush();
}

EngineState EngineCore::ExportState() const {
  EngineState state;
  state.engine_kind = "umicro";
  state.dimensions = online_.dimensions();
  state.shard_states.push_back(online_.ExportState());
  state.store = store_.ExportState();
  state.next_tick = next_tick_;
  state.since_snapshot = since_snapshot_;
  state.last_timestamp = last_timestamp_;
  return state;
}

bool EngineCore::RestoreState(const EngineState& state) {
  if (state.engine_kind != "umicro") return false;
  if (state.dimensions != online_.dimensions()) return false;
  if (state.shard_states.size() != 1) return false;
  // Validate and restore the store first: a geometry mismatch
  // (alpha/l drift between writer and reader) must leave the whole core
  // untouched, not just the retention rings.
  std::string store_error;
  if (!store_.RestoreState(state.store, &store_error)) {
    std::fprintf(stderr, "engine restore rejected: %s\n",
                 store_error.c_str());
    return false;
  }
  online_.RestoreState(state.shard_states[0]);
  next_tick_ = state.next_tick;
  since_snapshot_ = static_cast<std::size_t>(state.since_snapshot);
  last_timestamp_ = state.last_timestamp;
  return true;
}

}  // namespace umicro::core
