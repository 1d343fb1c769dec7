// EngineFleet: N independent tenant engines in one process, multiplexed
// over a small shared worker pool.
//
// The ROADMAP north star is "millions of users" -- hundreds of
// thousands of small independent uncertain streams (arXiv:0909.1777's
// per-source uncertainty state), not one monolithic stream. The fleet
// owns one TenantHandle (-> core::EngineCore) per tenant and routes
// (tenant_id, point) ingest by tenant hash onto the same shard-worker
// machinery the sharded engine uses: a parallel::BoundedQueue per
// worker, per-tenant batches of `fleet.tenant_batch` points, each batch
// drained through the batched kernel path (EngineCore::ProcessBatch),
// and one parallel::InFlight batch count as the drain barrier.
// Hashing a tenant to exactly one worker keeps every tenant's points in
// ingest order, which is why a tenant's state stays bit-identical to an
// isolated single-engine run (the fleet parity test's invariant).
//
// Threading model:
//   * Ingest/Flush/EnsureTenant/checkpoint/export -- coordinator only
//     (one thread at a time), like every engine in this codebase.
//   * Workers touch a tenant's core only under that tenant's slot
//     mutex; the coordinator takes the same mutex for queries/exports,
//     so handing a tenant between threads is race-free.
//   * Resolver() is safe from any broker thread concurrently with
//     tenant creation: the tenant table and the per-tenant replica
//     pointers are guarded by one fleet mutex, and a resolved replica
//     is kept alive by shared ownership for the query's duration.
//
// Serving: EnsureServing(tenant) attaches a per-tenant
// serve::SnapshotReadReplica as the tenant core's snapshot sink --
// idempotently (a second call, or re-attaching the same sink, never
// double-primes the replica's retention rings) -- and Resolver() hands
// the replica table to a tenant-aware serve::QueryBroker.
//
// Metrics (fleet.* in the fleet's registry): fleet.tenants,
// fleet.points, fleet.worker.<i>.points (per-worker ingest counters),
// fleet.ingest_skew (max/mean worker load), fleet.tenant_batch_micros
// (per-tenant batch drain latency; its p99 is the per-tenant tail),
// plus fleet.checkpoint.* written by FleetCheckpointer.

#ifndef UMICRO_FLEET_ENGINE_FLEET_H_
#define UMICRO_FLEET_ENGINE_FLEET_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/engine_core.h"
#include "core/horizon.h"
#include "fleet/tenant_handle.h"
#include "obs/metrics.h"
#include "parallel/bounded_queue.h"
#include "serve/query_broker.h"
#include "serve/replica.h"
#include "stream/point.h"

namespace umicro::fleet {

/// Point-in-time fleet counters.
struct FleetStats {
  /// Live tenants.
  std::size_t tenants = 0;
  /// Points accepted by Ingest() so far.
  std::uint64_t points_ingested = 0;
  /// Points drained per worker (ingest skew source).
  std::vector<std::uint64_t> worker_points;
  /// max/mean of worker_points (1.0 = perfectly even; 0 before any
  /// drain).
  double ingest_skew = 0.0;
};

/// A fleet of tenant engines behind hash-routed shared workers.
class EngineFleet {
 public:
  /// Creates the fleet for `dimensions`-dimensional streams:
  /// `config.fleet.tenants` engines (ids 0..N-1) eagerly, more lazily
  /// via EnsureTenant/Ingest; `config.fleet.workers` ingest workers.
  /// Each tenant runs config.umicro -- the shared algorithm tunables --
  /// with the fleet-sized pyramidal store config.fleet.snapshot.
  EngineFleet(std::size_t dimensions, const core::EngineConfig& config);

  EngineFleet(const EngineFleet&) = delete;
  EngineFleet& operator=(const EngineFleet&) = delete;

  /// Drains queued work and joins the workers.
  ~EngineFleet();

  /// Routes one point to `tenant` (created on first sight). Batches of
  /// `fleet.tenant_batch` points are handed to the tenant's worker;
  /// call Flush() to push out partial batches and wait for the queues
  /// to drain. Coordinator only.
  void Ingest(std::uint64_t tenant, const stream::UncertainPoint& point);

  /// Routes every partial batch, waits until all queued batches are
  /// drained, and publishes a fresh current view to every serving
  /// tenant's replica. Coordinator only.
  void Flush();

  /// Creates `tenant` if missing; returns its slot handle (owned by the
  /// fleet). Coordinator only.
  TenantHandle& EnsureTenant(std::uint64_t tenant);

  /// True when `tenant` exists. Safe from any thread.
  bool HasTenant(std::uint64_t tenant) const;

  /// Live tenant count. Safe from any thread.
  std::size_t tenant_count() const;

  /// All tenant ids, ascending. Coordinator only.
  std::vector<std::uint64_t> TenantIds() const;

  /// Detaches `tenant` from the fleet and moves its engine out (drains
  /// first; any replica is detached). Empty handle when the tenant does
  /// not exist. Coordinator only.
  TenantHandle ReleaseTenant(std::uint64_t tenant);

  /// Moves an externally built (or previously released) tenant engine
  /// into the fleet. False when the handle is empty or the id is taken.
  /// Coordinator only.
  bool AdoptTenant(TenantHandle handle);

  /// Horizon clustering for one tenant (drains the fleet first so the
  /// answer reflects everything ingested). Coordinator only.
  std::optional<core::HorizonClustering> ClusterRecent(
      std::uint64_t tenant, double horizon,
      const core::MacroClusteringOptions& options);

  /// Points processed by `tenant` (0 for an unknown tenant). Reflects
  /// drained work only -- call Flush() first for an exact figure.
  /// Coordinator only.
  std::uint64_t TenantPoints(std::uint64_t tenant) const;

  /// Exports one tenant's durable state (drains the fleet first).
  /// Coordinator only; `tenant` must exist.
  core::EngineState ExportTenantState(std::uint64_t tenant);

  /// Restores an exported state into `tenant` (created if missing).
  /// False when the state is incompatible. Coordinator only.
  bool RestoreTenantState(std::uint64_t tenant,
                          const core::EngineState& state);

  /// Starts serving `tenant`: builds its read replica and attaches it
  /// as the tenant's snapshot sink, priming it with retained snapshots
  /// plus the live state. Idempotent -- a tenant that is already
  /// serving keeps its replica untouched. Coordinator only.
  void EnsureServing(std::uint64_t tenant);

  /// Stops serving `tenant`: detaches the sink and drops the fleet's
  /// replica reference (in-flight queries keep theirs alive).
  /// Idempotent. Coordinator only.
  void StopServing(std::uint64_t tenant);

  /// The tenant's replica; nullptr when not serving. Safe from any
  /// thread.
  std::shared_ptr<const serve::SnapshotReadReplica> Replica(
      std::uint64_t tenant) const;

  /// Tenant-id -> replica resolver for serve::QueryBroker. Safe from
  /// any broker thread; the fleet must outlive the broker.
  serve::ReplicaResolver Resolver();

  /// Current counters (also refreshes the fleet.ingest_skew gauge).
  FleetStats Stats() const;

  /// The fleet's metrics registry (fleet.* instruments).
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Stream dimensionality.
  std::size_t dimensions() const { return dimensions_; }

  /// The configuration the fleet runs.
  const core::EngineConfig& config() const { return config_; }

 private:
  /// One tenant's slot: the handle plus the state handoff machinery.
  struct TenantSlot {
    TenantHandle handle;
    /// Guards the engine core: held by the worker draining a batch and
    /// by the coordinator for queries/exports/sink changes.
    std::mutex mu;
    /// Partial ingest batch (coordinator only).
    std::vector<stream::UncertainPoint> pending;
    /// Serving replica; pointer guarded by tenants_mu_ (shared
    /// ownership keeps it alive for resolved queries).
    std::shared_ptr<serve::SnapshotReadReplica> replica;
  };

  /// One queued unit of work: a tenant batch bound for its worker.
  struct WorkItem {
    TenantSlot* slot = nullptr;
    std::vector<stream::UncertainPoint> batch;
  };

  struct Worker {
    Worker(std::size_t capacity, parallel::BackpressurePolicy policy)
        : queue(capacity, policy) {}
    parallel::BoundedQueue<WorkItem> queue;
    obs::Counter* points = nullptr;
    std::thread thread;
  };

  void WorkerLoop(Worker* worker);

  /// Worker a tenant's batches are pinned to (splitmix64 of the id, so
  /// dense tenant ids still spread evenly).
  std::size_t WorkerOf(std::uint64_t tenant) const;

  TenantSlot* FindSlot(std::uint64_t tenant) const;
  TenantSlot* EnsureSlot(std::uint64_t tenant);

  /// Hands a tenant's pending batch to its worker (coordinator only).
  void RouteBatch(TenantSlot* slot);

  /// Recomputes the ingest-skew gauge from the worker counters.
  double ComputeSkew() const;

  const std::size_t dimensions_;
  const core::EngineConfig config_;

  obs::MetricsRegistry metrics_;
  obs::Gauge* tenants_gauge_;
  obs::Counter* points_counter_;
  obs::Histogram* batch_micros_;
  obs::Gauge* skew_gauge_;

  /// Guards the tenant table and every slot's replica pointer (the two
  /// things broker threads read through Resolver()).
  mutable std::mutex tenants_mu_;
  std::map<std::uint64_t, std::unique_ptr<TenantSlot>> tenants_;

  std::vector<std::unique_ptr<Worker>> workers_;
  /// Routed batches not yet drained.
  parallel::InFlight in_flight_;

  /// Coordinator-only ingest tally.
  std::uint64_t points_ingested_ = 0;
};

}  // namespace umicro::fleet

#endif  // UMICRO_FLEET_ENGINE_FLEET_H_
