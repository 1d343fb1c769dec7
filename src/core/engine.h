// The unified engine API plus its sequential implementation.
//
// ClusteringEngine is the one surface tools and benches drive: it extends
// the StreamClusterer contract (Process / name / points_processed /
// evaluation hooks) with horizon queries over a pyramidal snapshot store
// and a per-engine metrics registry, so the sequential UMicroEngine and
// the sharded ParallelUMicroEngine are interchangeable behind one
// pointer.
//
// UMicroEngine is the paper's full online/interactive analysis stack in
// one object. Section II-D: "as in [CluStream], the approach can be used
// to perform interactive and online clustering in a data stream
// environment". All of its algorithm state -- the UMicro online
// component and its pyramidal snapshot timeline (store, cadence, stream
// clock) -- lives in one handle-owned core::EngineCore (engine_core.h;
// the sharded engine runs the same SnapshotTimeline over its merged
// state). The engine adds the metrics registry and the virtual facade. The fleet layer
// (src/fleet) owns thousands of the same EngineCore objects directly,
// one per tenant, without this facade.

#ifndef UMICRO_CORE_ENGINE_H_
#define UMICRO_CORE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/engine_core.h"
#include "core/horizon.h"
#include "core/snapshot.h"
#include "core/umicro.h"
#include "obs/metrics.h"
#include "stream/clusterer.h"
#include "stream/point.h"

namespace umicro::core {

/// Abstract engine: one-pass stream clustering plus snapshots, horizon
/// queries, and an observability surface. Implemented by UMicroEngine
/// (sequential) and parallel::ParallelUMicroEngine (sharded); callers
/// hold a ClusteringEngine* and never branch on the concrete type.
class ClusteringEngine : public stream::StreamClusterer {
 public:
  /// Clusters the most recent `horizon` time units into `options.k`
  /// macro-clusters. Returns std::nullopt before any data or when the
  /// window is empty.
  virtual std::optional<HorizonClustering> ClusterRecent(
      double horizon, const MacroClusteringOptions& options) = 0;

  /// Completes all in-flight work so reads see current state (drains +
  /// merges for a sharded engine) and, with a snapshot sink attached,
  /// publishes a fresh "current" view to it.
  virtual void Flush() = 0;

  /// Attaches a snapshot sink (the serve layer's read replica; nullptr
  /// detaches). The engine immediately primes the sink with every
  /// retained pyramidal snapshot plus the live state, then keeps
  /// publishing on snapshot cadence and on Flush(). Re-attaching the
  /// sink that is already attached is a no-op (never double-primes).
  /// The sink must outlive the engine or be detached first;
  /// publications happen on the engine's coordinator thread.
  virtual void AttachSnapshotSink(SnapshotSink* sink) = 0;

  /// Snapshot store (inspection / persistence).
  virtual const SnapshotStore& store() const = 0;

  /// Captures the complete durable state (flushing in-flight work
  /// first): algorithm statistics, snapshot store, stream clock, and the
  /// counter/gauge metric cells.
  virtual EngineState ExportEngineState() = 0;

  /// Restores a previously exported state into this engine. Must be
  /// called on a freshly constructed engine with the same configuration;
  /// returns false (leaving the engine untouched) when the state's kind
  /// or dimensionality does not match.
  virtual bool RestoreEngineState(const EngineState& state) = 0;

  /// The engine's metrics registry: counters/gauges/latency histograms
  /// for every instrumented stage (see docs/observability.md for the
  /// catalog). Live -- collect at any time.
  virtual obs::MetricsRegistry& metrics() = 0;
  const obs::MetricsRegistry& metrics() const {
    return const_cast<ClusteringEngine*>(this)->metrics();
  }
};

/// Online uncertain-stream clustering with historical horizon queries.
class UMicroEngine : public ClusteringEngine {
 public:
  /// Creates an engine for `dimensions`-dimensional streams from the
  /// `umicro` and `snapshot` fields of the consolidated configuration.
  UMicroEngine(std::size_t dimensions, const EngineConfig& config);

  UMicroEngine(const UMicroEngine&) = delete;
  UMicroEngine& operator=(const UMicroEngine&) = delete;

  // StreamClusterer interface (delegating to the handle-owned core).
  void Process(const stream::UncertainPoint& point) override {
    core_.Process(point);
  }
  void ProcessBatch(std::span<const stream::UncertainPoint> points) override {
    core_.ProcessBatch(points);
  }
  std::string name() const override { return core_.online().name(); }
  std::size_t points_processed() const override {
    return core_.points_processed();
  }
  std::vector<stream::LabelHistogram> ClusterLabelHistograms()
      const override {
    return core_.online().ClusterLabelHistograms();
  }
  std::vector<std::vector<double>> ClusterCentroids() const override {
    return core_.online().ClusterCentroids();
  }

  // ClusteringEngine interface.
  std::optional<HorizonClustering> ClusterRecent(
      double horizon, const MacroClusteringOptions& options) override {
    return core_.ClusterRecent(horizon, options);
  }
  void Flush() override { core_.Flush(); }
  void AttachSnapshotSink(SnapshotSink* sink) override {
    core_.AttachSnapshotSink(sink);
  }
  EngineState ExportEngineState() override;
  bool RestoreEngineState(const EngineState& state) override;
  const SnapshotStore& store() const override { return core_.store(); }
  obs::MetricsRegistry& metrics() override { return metrics_; }

  /// Online component (current micro-clusters, diagnostics).
  const UMicro& online() const { return core_.online(); }

  /// The handle-owned algorithm state.
  const EngineCore& core() const { return core_; }

 private:
  obs::MetricsRegistry metrics_;
  EngineCore core_;
};

}  // namespace umicro::core

#endif  // UMICRO_CORE_ENGINE_H_
