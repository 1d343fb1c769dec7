// EngineConfig: the one configuration object of the whole stack.
//
// One value with per-field defaults describes a sequential engine, a
// sharded pipeline, a checkpointer's cadence, a query broker and a
// tenant fleet. Subsystems build from it directly: UMicroEngine and
// EngineFleet take an EngineConfig, ParallelEngineOptions::FromConfig
// and QueryBrokerOptions::FromConfig slice it, and CheckpointManager /
// FleetCheckpointer take its CheckpointConfig. Every field below is
// read by one of them; umicro_cli's flag table writes into it.
//
// Layering: this header lives in core and therefore only names types
// core already owns plus plain scalars. Subsystems that keep richer
// option structs (parallel's ParallelEngineOptions, serve's
// QueryBrokerOptions) provide their own converters next to those
// structs.

#ifndef UMICRO_CORE_CONFIG_H_
#define UMICRO_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "core/snapshot.h"
#include "core/umicro.h"

namespace umicro::core {

/// What a full bounded queue does with an incoming item (the sharded
/// pipeline's shard queues; parallel::BackpressurePolicy aliases it).
enum class BackpressurePolicy {
  /// Block the producer until a consumer frees a slot (lossless).
  kBlock,
  /// Evict the oldest queued item to make room (bounded staleness).
  kDropOldest,
  /// Reject the incoming item (bounded latency for what is queued).
  kDropNewest,
};

/// Sharded-ingest knobs (parallel subsystem).
struct ParallelConfig {
  /// Worker threads; 0 selects the sequential engine.
  std::size_t threads = 0;
  /// Points between global merges.
  std::size_t merge_every = 8192;
  /// Per-shard queue capacity, in producer batches.
  std::size_t queue_capacity = 1024;
  /// Points buffered per shard before an enqueue.
  std::size_t producer_batch = 64;
  /// Reaction to a full shard queue.
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Adaptive load shedding + worker supervision.
  bool degrade = false;
};

/// Crash-safe checkpointing cadence and retention (resilience and fleet
/// checkpointers; the directory is passed alongside).
struct CheckpointConfig {
  /// Checkpoint after this many newly processed points (0 = never by
  /// count).
  std::size_t every_points = 0;
  /// Checkpoint after this much wall-clock time (0 = never by time).
  double every_seconds = 0.0;
  /// Keep only the newest N checkpoints/manifests (0 = keep all).
  std::size_t keep_last = 4;
};

/// Query-serving knobs (serve subsystem).
struct ServeConfig {
  /// Broker worker threads.
  std::size_t threads = 4;
  /// Broker queue bound (backpressure toward the front end).
  std::size_t max_queue = 1024;
};

/// Multi-tenant fleet knobs (fleet subsystem; docs/fleet.md).
struct FleetConfig {
  /// Tenant engines to pre-create; 0 disables fleet mode. Tenants can
  /// also be created lazily through EngineFleet::EnsureTenant.
  std::size_t tenants = 0;
  /// Ingest worker threads shared by all tenants (tenant -> worker by
  /// hash).
  std::size_t workers = 4;
  /// Per-worker queue capacity, in tenant batches.
  std::size_t queue_capacity = 1024;
  /// Points buffered per tenant before the batch is routed to its
  /// worker (drained through the batched kernel path).
  std::size_t tenant_batch = 64;
  /// Per-tenant pyramidal store, sized down from the single-engine
  /// default: a fleet of 10^5 tenants cannot afford alpha^l + 1 deep
  /// rings per order each, so l shrinks by one and snapshots come at a
  /// coarser cadence. Frames are delta-encoded by default -- the fleet
  /// is exactly the context where per-tenant store bytes dominate, and
  /// delta frames are lossless (bit-identical materialization).
  SnapshotPolicy snapshot = [] {
    SnapshotPolicy policy;
    policy.snapshot_every = 256;
    policy.pyramid_alpha = 2;
    policy.pyramid_l = 2;
    policy.tiering.mode = SnapshotStoreMode::kDelta;
    return policy;
  }();
};

/// The consolidated configuration. Every field group has working
/// defaults; a default-constructed EngineConfig describes a sequential
/// engine. UMicroEngine reads `umicro` + `snapshot`; a fleet tenant
/// reads `umicro` + `fleet.snapshot`.
struct EngineConfig {
  /// Online algorithm tunables (shared by every engine and tenant).
  UMicroOptions umicro;
  /// Snapshot cadence / pyramidal retention of a single engine.
  SnapshotPolicy snapshot;
  /// Sharded-ingest pipeline.
  ParallelConfig parallel;
  /// Crash-safe checkpointing.
  CheckpointConfig checkpoint;
  /// Query serving.
  ServeConfig serve;
  /// Multi-tenant fleet.
  FleetConfig fleet;
};

}  // namespace umicro::core

#endif  // UMICRO_CORE_CONFIG_H_
