// ParallelUMicroEngine: the sharded implementation of ClusteringEngine.
//
// Mirrors the sequential engine's facade -- feed points, get automatic
// pyramidal snapshots and horizon queries -- but ingests through the
// ShardedUMicro pipeline. Snapshots are taken on the merged global state
// (a snapshot cadence point forces a global merge first), so the
// pyramidal store and ClusterOverHorizon work exactly as in the
// sequential engine; ECF additivity makes the merged statistics exact.
//
// Like ShardedUMicro, the public API is single-coordinator: call it from
// one thread.

#ifndef UMICRO_PARALLEL_PARALLEL_ENGINE_H_
#define UMICRO_PARALLEL_PARALLEL_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/engine.h"
#include "core/horizon.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "parallel/sharded_umicro.h"
#include "stream/point.h"

namespace umicro::parallel {

/// Configuration of the sharded engine.
struct ParallelEngineOptions {
  /// Ingest pipeline configuration.
  ShardedUMicroOptions sharded;
  /// Snapshot cadence and pyramidal retention. Each snapshot forces a
  /// drain + merge, so the cadence default (8192, vs the sequential
  /// engine's 100) stays well above the per-point cost you are willing
  /// to amortize.
  core::SnapshotPolicy snapshot = [] {
    core::SnapshotPolicy policy;
    policy.snapshot_every = 8192;
    policy.pyramid_alpha = 2;
    policy.pyramid_l = 3;
    return policy;
  }();

  /// The sharded slice of the consolidated EngineConfig (core/config.h):
  /// the umicro tunables, the parallel knobs (threads become shards;
  /// degrade arms both load shedding and worker supervision) and the
  /// engine's snapshot policy.
  static ParallelEngineOptions FromConfig(const core::EngineConfig& config);
};

/// Sharded online clustering with historical horizon queries.
class ParallelUMicroEngine : public core::ClusteringEngine {
 public:
  /// Creates an engine for `dimensions`-dimensional streams.
  ParallelUMicroEngine(std::size_t dimensions, ParallelEngineOptions options);

  ParallelUMicroEngine(const ParallelUMicroEngine&) = delete;
  ParallelUMicroEngine& operator=(const ParallelUMicroEngine&) = delete;

  // StreamClusterer interface (delegating to the pipeline; the two read
  // accessors force a fresh merge inside ShardedUMicro).
  void Process(const stream::UncertainPoint& point) override;
  /// Batched ingest. Partitioning, shedding, and merge cadence stay
  /// per-point coordinator decisions; the throughput win comes from the
  /// workers draining each enqueued batch through the batch kernels.
  void ProcessBatch(std::span<const stream::UncertainPoint> points) override;
  std::string name() const override { return sharded_.name(); }
  std::size_t points_processed() const override {
    return sharded_.points_processed();
  }
  std::vector<stream::LabelHistogram> ClusterLabelHistograms()
      const override {
    return sharded_.ClusterLabelHistograms();
  }
  std::vector<std::vector<double>> ClusterCentroids() const override {
    return sharded_.ClusterCentroids();
  }

  // ClusteringEngine interface.
  std::optional<core::HorizonClustering> ClusterRecent(
      double horizon, const core::MacroClusteringOptions& options) override;
  /// Drains the pipeline, refreshes the merged global view, and
  /// publishes it to an attached snapshot sink.
  void Flush() override;
  void AttachSnapshotSink(core::SnapshotSink* sink) override;
  core::EngineState ExportEngineState() override;
  bool RestoreEngineState(const core::EngineState& state) override;
  const core::SnapshotStore& store() const override { return store_; }
  /// The pipeline's registry (engine-level snapshot metrics land in the
  /// same registry, so one export covers the whole stack).
  obs::MetricsRegistry& metrics() override { return sharded_.metrics(); }

  /// Ingest pipeline (merged clusters, parallel metrics).
  const ShardedUMicro& sharded() const { return sharded_; }

 private:
  ParallelEngineOptions options_;
  ShardedUMicro sharded_;
  core::SnapshotStore store_;
  core::SnapshotSink* sink_ = nullptr;
  /// Refreshes the snapshot.{bytes,frames,delta_ratio} gauges and feeds
  /// the store's cumulative counters into the registry as deltas.
  void PublishStoreMetrics();

  obs::Histogram* snapshot_micros_;
  obs::Counter* snapshots_taken_;
  obs::Gauge* snapshots_stored_;
  obs::Gauge* snapshot_bytes_;
  obs::Gauge* snapshot_frames_;
  obs::Gauge* snapshot_delta_ratio_;
  obs::Counter* snapshot_reconstructions_;
  obs::Counter* snapshot_spills_;
  std::uint64_t published_reconstructions_ = 0;
  std::uint64_t published_spills_ = 0;
  std::uint64_t next_tick_ = 1;
  std::size_t since_snapshot_ = 0;
  double last_timestamp_ = 0.0;
};

}  // namespace umicro::parallel

#endif  // UMICRO_PARALLEL_PARALLEL_ENGINE_H_
