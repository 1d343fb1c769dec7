// The engine components both ClusteringEngine implementations share.
//
// SnapshotTimeline is the paper's pyramidal time frame (Section II-D)
// as one component: the SnapshotStore, the stream clock, the snapshot
// cadence, the optional snapshot sink and the "snapshot." instruments.
// The sequential engine and the sharded engine each own one; they
// differ only in how a frame of their live state is produced (UMicro's
// TakeSnapshot against a forced drain + merge and the merged frame).
//
// EngineCore is UMicro plus a timeline -- one engine's complete
// algorithm state behind one compact object (the umappp Status
// pattern), driven by two very different owners:
//
//   * UMicroEngine wraps one EngineCore plus a metrics registry and
//     keeps the public ClusteringEngine contract;
//   * the fleet's TenantHandle owns one EngineCore per tenant --
//     hundreds of thousands of them in one process -- with no
//     per-tenant registry, virtual dispatch, or facade overhead.
//
// Both components are registry-free until AttachMetrics (fleet tenants
// stay detached and the fleet records batch-level fleet.* metrics
// instead). Exported state therefore never includes metric cells;
// owners that persist them add them on top.

#ifndef UMICRO_CORE_ENGINE_CORE_H_
#define UMICRO_CORE_ENGINE_CORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/horizon.h"
#include "core/snapshot.h"
#include "core/umicro.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "stream/point.h"

namespace umicro::core {

/// Complete serializable state of a running engine -- the unit of a
/// crash-safe checkpoint (see io/state_io.h for the on-disk format and
/// resilience/checkpoint.h for the write/recover machinery).
///
/// The ECF statistics inside are additive and carry no hidden process
/// state, so restoring this into a freshly constructed, identically
/// configured engine and replaying the stream from `points_processed()`
/// onward reproduces the uninterrupted run exactly (the no-double-count
/// invariant the crash-recovery suite asserts).
struct EngineState {
  /// Concrete engine tag ("umicro" or "sharded"); restore refuses a
  /// mismatch.
  std::string engine_kind;
  /// Stream dimensionality the state was exported under.
  std::size_t dimensions = 0;
  /// Per-shard algorithm states; exactly one entry for the sequential
  /// engine, one per worker for the sharded engine (its post-merge
  /// residuals -- the shard-private statistics as of the flushed
  /// checkpoint instant).
  std::vector<UMicroState> shard_states;
  /// Sharded only: coordinator counters (ingest total, round-robin
  /// cursor) so partitioning resumes exactly where it stopped.
  std::uint64_t points_ingested = 0;
  std::uint64_t next_round_robin = 0;
  /// Pyramidal snapshot-store contents.
  SnapshotStoreState store;
  /// Engine stream clock.
  std::uint64_t next_tick = 1;
  std::uint64_t since_snapshot = 0;
  double last_timestamp = 0.0;
  /// Counter/gauge cells of the owner's metrics registry at checkpoint
  /// time; empty for registry-free owners (fleet tenants). Histograms
  /// are not restorable and restart empty after recovery.
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, double>> gauges;
};

/// The pyramidal snapshot timeline of one engine.
///
/// The owner feeds it every point (Advance) and, when Advance reports a
/// cadence snapshot due, a frame of its live state (TakeSnapshot).
/// Frame producers are called with the stream clock's time. Single
/// coordinator: all calls come from one thread at a time.
class SnapshotTimeline {
 public:
  /// A timeline with an empty store shaped by `policy`.
  explicit SnapshotTimeline(const SnapshotPolicy& policy);

  /// Advances the clock past one point; true when the cadence snapshot
  /// is now due. Out-of-order arrivals (merged shard replays, log
  /// replays) never rewind the clock: SnapshotStore::Insert requires
  /// increasing tick times and decay is anchored to the newest time.
  bool Advance(double timestamp) {
    last_timestamp_ = std::max(last_timestamp_, timestamp);
    return snapshot_every_ > 0 && ++since_snapshot_ >= snapshot_every_;
  }

  /// Points until the next cadence snapshot is due: at least 1, also for
  /// a restored clock already past due; the maximum size_t with the
  /// cadence off. Batched ingest chunks at exactly this boundary.
  std::size_t PointsUntilDue() const {
    if (snapshot_every_ == 0) return std::numeric_limits<std::size_t>::max();
    return snapshot_every_ - std::min(since_snapshot_, snapshot_every_ - 1);
  }

  /// Takes the cadence snapshot: `make_frame(time)` builds it (timed as
  /// part of snapshot.take_micros), then it is published to the sink and
  /// inserted into the store as one immutable frame.
  template <typename MakeFrame>
  void TakeSnapshot(MakeFrame&& make_frame) {
    const obs::ScopedTimer timer(take_micros_);
    Commit(make_frame(last_timestamp_));
  }

  /// With a sink attached, publishes `make_frame(time)` as the fresh
  /// "current" view.
  template <typename MakeFrame>
  void PublishCurrent(MakeFrame&& make_frame) {
    if (sink_ == nullptr) return;
    sink_->PublishCurrent(
        std::make_shared<const Snapshot>(make_frame(last_timestamp_)));
  }

  /// Attaches a snapshot sink (nullptr detaches) and primes it with
  /// every retained frame. Returns true when a sink was newly attached:
  /// the owner then publishes its live state (PublishCurrent). Attaching
  /// the attached sink again is a no-op returning false -- a replica's
  /// retention rings are never primed twice.
  bool AttachSink(SnapshotSink* sink);

  /// Attaches the "snapshot." and horizon-query instruments (nullptr
  /// detaches). The registry must outlive the timeline.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Clusters the `horizon` time units before `current` (the owner's
  /// live frame) over the store.
  std::optional<HorizonClustering> ClusterRecent(
      const Snapshot& current, double horizon,
      const MacroClusteringOptions& options, double decay_lambda);

  /// Writes the store and the clock into `state`.
  void ExportState(EngineState& state) const;

  /// Restores the store and the clock from `state`. Returns false
  /// (timeline untouched) when the store rejects the retention geometry;
  /// owners validate their own half first.
  bool RestoreState(const EngineState& state);

  /// The pyramidal store (inspection / persistence).
  const SnapshotStore& store() const { return store_; }

  /// Newest timestamp seen (the decay anchor).
  double last_timestamp() const { return last_timestamp_; }

 private:
  /// Stores `frame` under the next tick, publishing it to the sink
  /// first, and refreshes the snapshot instruments.
  void Commit(Snapshot frame);

  /// Refreshes the snapshot.{bytes,frames,delta_ratio} gauges and feeds
  /// the cumulative reconstruction counter into the registry as a delta
  /// since the last publication.
  void PublishStoreMetrics();

  std::size_t snapshot_every_;
  SnapshotStore store_;
  SnapshotSink* sink_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Histogram* take_micros_ = nullptr;
  obs::Counter* taken_ = nullptr;
  obs::Gauge* stored_ = nullptr;
  obs::Gauge* bytes_ = nullptr;
  obs::Gauge* frames_ = nullptr;
  obs::Gauge* delta_ratio_ = nullptr;
  obs::Counter* reconstructions_ = nullptr;
  std::uint64_t published_reconstructions_ = 0;
  std::uint64_t next_tick_ = 1;
  std::size_t since_snapshot_ = 0;
  double last_timestamp_ = 0.0;
};

/// The handle-owned sequential engine state: the UMicro online
/// component plus its snapshot timeline.
///
/// Single-threaded: all calls must come from one thread at a time (an
/// owner that hands the core between threads -- the fleet's workers and
/// coordinator -- provides its own exclusion).
class EngineCore {
 public:
  /// Creates the state for `dimensions`-dimensional streams.
  EngineCore(std::size_t dimensions, const UMicroOptions& umicro,
             const SnapshotPolicy& snapshot);

  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  /// Ingests one point, taking the cadence snapshot when due.
  void Process(const stream::UncertainPoint& point);

  /// Batched ingest: identical point-by-point semantics, but the batch
  /// is chunked at snapshot-cadence boundaries so the online component
  /// ingests each chunk in one amortized ProcessBatch call and every
  /// due snapshot is still taken at exactly the right point count.
  void ProcessBatch(std::span<const stream::UncertainPoint> points);

  /// Clusters the most recent `horizon` time units into `options.k`
  /// macro-clusters. Returns std::nullopt before any data or when the
  /// window is empty.
  std::optional<HorizonClustering> ClusterRecent(
      double horizon, const MacroClusteringOptions& options);

  /// With a sink attached, publishes a fresh "current" view of the live
  /// state (no-op before any data).
  void Flush();

  /// Attaches a snapshot sink (nullptr detaches): primes it with every
  /// retained snapshot plus the live state, then keeps publishing on
  /// cadence and on Flush(). Attaching the sink that is already
  /// attached is a no-op (idempotent -- the fleet's serve path relies
  /// on this to never double-prime a replica's retention rings).
  void AttachSnapshotSink(SnapshotSink* sink);

  /// Attaches a metrics registry (nullptr detaches, the default): the
  /// online component's "umicro." instruments plus the timeline's
  /// "snapshot." instruments. The registry must outlive this core.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Captures the complete durable state. Metric cells are left empty
  /// (EngineCore is registry-free); owners append their own.
  EngineState ExportState() const;

  /// Restores a previously exported state into this freshly
  /// constructed, same-configured core. Returns false (core untouched)
  /// when the state's kind or dimensionality does not match.
  bool RestoreState(const EngineState& state);

  /// Online component (current micro-clusters, diagnostics).
  const UMicro& online() const { return online_; }

  /// Snapshot store (inspection / persistence).
  const SnapshotStore& store() const { return timeline_.store(); }

  /// Points ingested so far.
  std::size_t points_processed() const { return online_.points_processed(); }

 private:
  void TakeCadenceSnapshot();

  UMicro online_;
  SnapshotTimeline timeline_;
};

}  // namespace umicro::core

#endif  // UMICRO_CORE_ENGINE_CORE_H_
