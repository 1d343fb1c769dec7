// ParallelUMicroEngine: the sharded implementation of ClusteringEngine.
//
// Multi-threaded UMicro ingest with an exact ECF merge, plus the
// sequential engine's SnapshotTimeline. The error-based cluster features
// are additive (Property 2.1), so shard-local micro-clusterings combine
// into a global clustering without any approximation of the statistics:
// every point's contribution to (CF2, EF2, CF1, n) survives the merge
// bit-for-bit no matter which shard absorbed it. That observation -- the
// basis of communication-efficient distributed stream clustering --
// turns the sequential algorithm into a sharded pipeline:
//
//   Process() --round-robin--> per-shard bounded queue --> worker thread
//                                                         (private UMicro)
//   every merge_every points / on Flush(): drain, collect shard views,
//   merge them into the global view, reconciling near-duplicate clusters
//   with the paper's dimension-counting similarity.
//
// The merged view, a core::LabeledFrame, is a pure function of the
// flushed shard states, so it is never persisted: a checkpoint carries
// the shard states, and the first merge after a restore rebuilds the
// view. Snapshots copy the merged frame (a snapshot cadence point forces
// a merge first), so the one timeline -- cadence, store, sink, clock --
// works exactly as in the sequential engine.
//
// Threading contract: the public API is single-coordinator -- all calls
// must come from one thread (the stream driver). Concurrency lives in the
// worker threads behind the queues. The merged global view is only
// recomputed at merge points, so reads between merges see the last merge.

#ifndef UMICRO_PARALLEL_PARALLEL_ENGINE_H_
#define UMICRO_PARALLEL_PARALLEL_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/engine.h"
#include "core/engine_core.h"
#include "core/horizon.h"
#include "core/microcluster.h"
#include "core/snapshot.h"
#include "core/umicro.h"
#include "obs/metrics.h"
#include "parallel/bounded_queue.h"
#include "stream/point.h"
#include "util/random.h"

namespace umicro::parallel {

/// Graceful overload degradation (resilience pillar 4). When enabled,
/// the coordinator watches queue occupancy at every enqueue; after
/// `trigger_after` consecutive pressured enqueues it enters degraded
/// mode: pending batches are shed with probability `shed_probability`
/// before they enter the queue (so a kBlock pipeline stays live instead
/// of stalling the producer) and the global merge cadence is stretched
/// by `merge_stretch`. After `recover_after` consecutive calm enqueues
/// the pipeline returns to normal. Every shed point is counted in
/// "parallel.degrade.points_shed"; docs/resilience.md has the catalog.
struct DegradationOptions {
  /// Master switch; off preserves the exact lossless (kBlock) behavior.
  bool enabled = false;
  /// Queue-occupancy fraction (of capacity) that counts as pressured.
  double occupancy_trigger = 0.75;
  /// Consecutive pressured enqueues before degraded mode activates.
  std::size_t trigger_after = 8;
  /// Consecutive calm enqueues before degraded mode deactivates.
  std::size_t recover_after = 32;
  /// Probability a pending batch is shed while degraded.
  double shed_probability = 0.5;
  /// Multiplier on merge_every while degraded (merges are the costliest
  /// coordinator work, so stretching them sheds coordination load too).
  double merge_stretch = 4.0;
  /// Seed of the deterministic shed decisions.
  std::uint64_t seed = 0x5eedu;
};

/// Worker supervision (resilience pillar 4). A supervisor thread polls
/// worker liveness; a worker that died (only possible via the
/// "parallel.worker*.death" failpoints -- the code has no exceptions) is
/// joined, its in-flight batch applied by the supervisor itself, and a
/// replacement spawned, so a dead shard can no longer wedge the drain
/// barrier forever.
struct SupervisorOptions {
  /// Master switch; off means no extra thread.
  bool enabled = false;
  /// Liveness poll interval.
  std::size_t poll_millis = 20;
};

/// Configuration of the sharded ingest pipeline.
struct ShardedUMicroOptions {
  /// Per-shard algorithm configuration (every shard runs this verbatim).
  core::UMicroOptions umicro;
  /// Number of worker threads / private UMicro instances (>= 1).
  std::size_t num_shards = 4;
  /// Per-shard queue capacity, counted in batches of `producer_batch`
  /// points each.
  std::size_t queue_capacity = 1024;
  /// Reaction to a full shard queue. kBlock keeps ingest lossless (the
  /// exactness guarantees assume it); the drop policies shed load, with
  /// whole batches dropped at a time and every shed point counted.
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Global merge cadence in ingested points; 0 merges only on Flush()
  /// and on-demand reads (centroids / label histograms).
  std::size_t merge_every = 8192;
  /// Points buffered per shard before an enqueue (amortizes queue
  /// synchronization; 1 = unbatched).
  std::size_t producer_batch = 64;
  /// Micro-cluster budget of the merged global view; 0 means
  /// umicro.num_micro_clusters. When the concatenated shard clusters
  /// exceed it, near-duplicates are reconciled pairwise (most similar
  /// first) until the budget holds.
  std::size_t global_budget = 0;
  /// Adaptive load shedding under sustained backpressure.
  DegradationOptions degrade;
  /// Worker liveness supervision.
  SupervisorOptions supervisor;
};

/// Configuration of the sharded engine.
struct ParallelEngineOptions {
  /// Ingest pipeline configuration.
  ShardedUMicroOptions sharded;
  /// Snapshot cadence and pyramidal retention. A cadence snapshot is
  /// taken on a current global view: it drains the shards and rebuilds
  /// the view, unless a `sharded.merge_every` merge on the same point
  /// already did. The cadence default (8192, vs the sequential engine's
  /// 100) keeps those rebuilds rare enough to amortize; 0 turns
  /// snapshots off.
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
///
/// All pipeline observability lives in the embedded metrics registry
/// (metrics()): per-shard ingest/queue counters under
/// "parallel.shard<i>.", merge/reconcile counters and latency histograms
/// under "parallel.", the shard algorithms' own "umicro." metrics
/// (shared cells, updated by every worker) and the timeline's
/// "snapshot." metrics. See docs/observability.md for the catalog.
class ParallelUMicroEngine : public core::ClusteringEngine {
 public:
  /// Starts `options.sharded.num_shards` worker threads for
  /// `dimensions`-d streams.
  ParallelUMicroEngine(std::size_t dimensions, ParallelEngineOptions options);

  /// Closes the queues and joins the workers, which first process every
  /// batch still queued.
  ~ParallelUMicroEngine() override;

  ParallelUMicroEngine(const ParallelUMicroEngine&) = delete;
  ParallelUMicroEngine& operator=(const ParallelUMicroEngine&) = delete;

  // StreamClusterer interface. The two read accessors force a fresh
  // global merge so evaluation always sees current state.
  void Process(const stream::UncertainPoint& point) override;
  /// Batched ingest. Partitioning, shedding, and merge cadence stay
  /// per-point coordinator decisions; the throughput win comes from the
  /// workers draining each enqueued batch through the batch kernels.
  void ProcessBatch(std::span<const stream::UncertainPoint> points) override;
  std::string name() const override;
  std::size_t points_processed() const override { return points_ingested_; }
  std::vector<stream::LabelHistogram> ClusterLabelHistograms() const override;
  std::vector<std::vector<double>> ClusterCentroids() const override;

  // ClusteringEngine interface.
  std::optional<core::HorizonClustering> ClusterRecent(
      double horizon, const core::MacroClusteringOptions& options) override;
  /// Flushes producer batches, waits until every queue is drained and
  /// every worker idle, then recomputes the merged global view and
  /// publishes it to an attached snapshot sink. When no batch has
  /// reached a shard since the last rebuild (and no state was restored),
  /// the view is already current: nothing is drained or rebuilt, and no
  /// merge is counted.
  void Flush() override;
  void AttachSnapshotSink(core::SnapshotSink* sink) override;
  /// Drains and merges first, so no point is in flight; the state holds
  /// the shard residuals, the partition cursor and the timeline, not the
  /// merged view (a function of the shard states).
  core::EngineState ExportEngineState() override;
  /// Requires a "sharded" state with this engine's shard count and
  /// dimensionality, checked before anything is overwritten. The merged
  /// view is left stale: the next merge rebuilds it.
  bool RestoreEngineState(const core::EngineState& state) override;
  const core::SnapshotStore& store() const override {
    return timeline_.store();
  }
  /// The pipeline's registry (engine-level snapshot metrics land in the
  /// same registry, so one export covers the whole stack).
  obs::MetricsRegistry& metrics() override { return metrics_; }

  /// Merged global micro-clusters as of the last merge (call Flush()
  /// first for an up-to-date view). The frame's time is the stream time
  /// of the last frame taken from the view.
  const core::LabeledFrame& GlobalClusters() const {
    return global_clusters_;
  }

  /// True while the adaptive load-shed controller is degrading service.
  bool degraded() const { return degraded_; }

  /// Worker restarts performed by the supervisor so far.
  std::size_t worker_restarts() const;

 private:
  /// One worker: queue, private algorithm, and the mutex that hands the
  /// algorithm state between the worker (processing) and the coordinator
  /// (collection after a drain). The counters are registry cells
  /// ("parallel.shard<i>." prefix), safe for worker-side updates.
  struct Shard {
    Shard(std::size_t dimensions, const ShardedUMicroOptions& options)
        : queue(options.queue_capacity, options.backpressure),
          algo(dimensions, options.umicro) {}

    BoundedQueue<std::vector<stream::UncertainPoint>> queue;
    std::mutex state_mu;
    core::UMicro algo;  // guarded by state_mu
    obs::Counter* points_processed = nullptr;  // worker increments
    obs::Counter* batches_processed = nullptr;  // worker increments
    obs::Counter* points_dropped = nullptr;  // coordinator increments
    obs::Gauge* clusters_at_merge = nullptr;  // coordinator sets
    /// True from just before the worker thread is spawned until its loop
    /// exits; the supervisor restarts a shard whose flag dropped while
    /// the pipeline is live.
    std::atomic<bool> worker_alive{false};
    /// The batch the worker is currently processing. Written by the
    /// worker, read by the supervisor only after joining the dead thread
    /// (join orders the accesses), so no lock is needed.
    std::vector<stream::UncertainPoint> in_progress_batch;
    /// Processed batches handed back by the worker for the coordinator
    /// to refill (guarded by spare_mu; a few at most). Recycling keeps
    /// steady-state batch memory allocated and freed on the coordinator
    /// thread; the coordinator frees what is left after each drained
    /// merge.
    std::mutex spare_mu;
    std::vector<std::vector<stream::UncertainPoint>> spares;
    std::thread worker;
  };

  /// Worker thread body for shard `index`.
  void WorkerLoop(std::size_t index);

  /// Supervisor thread body: polls worker liveness, restarts the dead.
  void SupervisorLoop();

  /// Joins a dead worker, applies its in-flight batch, and spawns a
  /// replacement (supervisor thread only).
  void RestartShard(std::size_t index);

  /// Load-shed decision for shard `index`'s pending batch: updates the
  /// pressure streaks, flips degraded mode, and returns true when the
  /// batch should be shed before entering the queue (coordinator only).
  bool ShouldShedBatch(std::size_t index);

  /// Enqueues shard `index`'s pending producer batch (no-op if empty).
  void EnqueueBatch(std::size_t index);

  /// Replaces shard `index`'s pending batch (just moved into the queue)
  /// with the spare its worker handed back last, or with a fresh buffer
  /// when there is none, and resets the fill to zero.
  void TakeSpareBatch(std::size_t index);

  /// Collects the shard views and rebuilds the merged global view; must
  /// only run with all queues drained.
  void RebuildGlobalView();

  /// Enqueue of pending batches, then drain + rebuild + merge-stat
  /// bookkeeping unless the view is current.
  void MergeNow();

  const std::size_t dimensions_;
  const ShardedUMicroOptions options_;
  const std::size_t global_budget_;

  /// Declared before the shards and the timeline: shard construction
  /// resolves metric handles out of this registry, and the shard
  /// algorithms keep writing into it until their workers join.
  obs::MetricsRegistry metrics_;
  // Pipeline-wide metric handles (resolved once in the constructor).
  obs::Counter* points_ingested_metric_;
  obs::Counter* points_dropped_metric_;
  obs::Counter* merges_metric_;
  obs::Counter* reconcile_metric_;
  obs::Histogram* merge_micros_;
  obs::Histogram* rebuild_micros_;
  obs::Gauge* global_clusters_metric_;
  // Degradation / supervision metric handles.
  obs::Counter* degrade_activations_metric_;
  obs::Counter* points_shed_metric_;
  obs::Counter* batches_shed_metric_;
  obs::Gauge* degrade_active_gauge_;
  obs::Counter* worker_restarts_metric_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Producer-side point buffers, one per shard (coordinator thread
  /// only). A recycled buffer keeps its old points as storage: the first
  /// pending_fill_[i] elements of pending_batches_[i] are the pending
  /// points, the rest are overwritten in place as points arrive.
  std::vector<std::vector<stream::UncertainPoint>> pending_batches_;
  std::vector<std::size_t> pending_fill_;

  /// Points enqueued on any shard and not yet processed or dropped; a
  /// merge waits for zero (every queue empty, every worker idle).
  InFlight in_flight_;

  // Coordinator-thread state.
  std::size_t points_ingested_ = 0;
  std::size_t points_since_merge_ = 0;
  std::size_t next_round_robin_ = 0;
  core::LabeledFrame global_clusters_;
  /// False once a batch was pushed to a shard queue or a state restored
  /// since the last rebuild; MergeNow skips the rebuild while true.
  bool view_current_ = true;
  /// Set by the destructor before tearing anything down; read by the
  /// supervisor to suppress restarts during shutdown.
  std::atomic<bool> stopped_{false};

  // Load-shed controller state (coordinator thread only).
  bool degraded_ = false;
  std::size_t pressured_streak_ = 0;
  std::size_t calm_streak_ = 0;
  util::Rng shed_rng_;

  core::SnapshotTimeline timeline_;

  // Supervisor thread (started only when options.supervisor.enabled).
  std::atomic<bool> supervisor_stop_{false};
  std::thread supervisor_;
};

}  // namespace umicro::parallel

#endif  // UMICRO_PARALLEL_PARALLEL_ENGINE_H_
