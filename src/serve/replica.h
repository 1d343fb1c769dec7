// SnapshotReadReplica: the immutable published view query threads read.
//
// The engine (one coordinator thread) publishes on snapshot cadence via
// the core::SnapshotSink interface, handing over the same immutable
// frame its own snapshot store keeps (no copy on the publish path);
// each publication builds a fresh ReplicaState -- a copy-on-publish
// value that shares the Snapshot objects with its predecessors and with
// the store through shared_ptr -- and swaps it in under a pointer-sized
// critical section. Readers Acquire()
// a shared_ptr copy and keep a consistent view for as long as they hold
// it, no matter how many publications happen meanwhile. No lock is ever
// held across a query or across snapshot construction; the only point
// where ingest and readers can touch is the one-pointer swap/copy.
//
// Retention is a full-frame core::SnapshotStore of the engine's alpha
// and l, fed the same ticks, so the replica retains exactly the engine
// store's frames; a query ranks them with core::FrameRank, the rule the
// engine's own ClusterRecent uses, so both pick the same frame even
// among frames of equal time -- the quiesced-equality guarantee the
// serve tests assert.

#ifndef UMICRO_SERVE_REPLICA_H_
#define UMICRO_SERVE_REPLICA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/snapshot.h"

namespace umicro::serve {

/// One retained cadence frame: its engine clock tick and the shared,
/// immutable snapshot.
struct ReplicaFrame {
  std::uint64_t tick = 0;
  std::shared_ptr<const core::Snapshot> snapshot;

  /// The frame's selection key (core::FrameRank).
  core::FrameKey key() const { return {snapshot->time, tick}; }
};

/// One published, immutable view of the engine's snapshot state.
struct ReplicaState {
  /// Monotone publication sequence number (0 = never published).
  std::uint64_t publish_seq = 0;
  /// The freshest view of the live micro-cluster set; null before any
  /// data has been published.
  std::shared_ptr<const core::Snapshot> current;
  /// Pyramid-retained snapshot history, ascending by tick.
  /// Snapshots are shared with earlier/later states and with the engine
  /// store; only the vector is per-state.
  std::vector<ReplicaFrame> history;

  /// The history frame core::FrameRank{target, pick} tries first; null
  /// when `pick` admits none (the query broker's frame finder).
  std::shared_ptr<const core::Snapshot> Find(double target,
                                             core::FramePick pick) const;
};

/// Copy-on-publish snapshot replica behind a guarded shared_ptr swap.
class SnapshotReadReplica : public core::SnapshotSink {
 public:
  /// `policy` must match the engine's snapshot policy (its alpha and l
  /// configure the retention store); `decay_lambda` is the engine's
  /// decay rate, threaded into horizon subtraction by the query broker.
  SnapshotReadReplica(const core::SnapshotPolicy& policy,
                      double decay_lambda);

  // core::SnapshotSink (engine thread only).
  void PublishSnapshot(std::uint64_t tick,
                       std::shared_ptr<const core::Snapshot> snapshot) override;
  void PublishCurrent(std::shared_ptr<const core::Snapshot> snapshot) override;

  /// The current published state (never null; publish_seq == 0 and a
  /// null `current` before the first publication). Safe from any thread;
  /// the returned state never mutates.
  std::shared_ptr<const ReplicaState> Acquire() const;

  /// The engine's decay rate lambda (horizon subtraction correction).
  double decay_lambda() const { return decay_lambda_; }

  /// Publications so far.
  std::uint64_t publish_seq() const { return publish_seq_; }

 private:
  /// Builds and atomically installs a new ReplicaState from the
  /// writer-side history + current pointer.
  void InstallState();

  const double decay_lambda_;
  /// Writer-side retention (engine thread only): decides which frames
  /// the history keeps.
  core::SnapshotStore store_;
  /// Every frame store_ retains, ascending by tick, copied into each
  /// published state.
  std::vector<ReplicaFrame> history_;
  std::shared_ptr<const core::Snapshot> current_;
  std::uint64_t publish_seq_ = 0;
  /// Guards only the `state_` pointer itself. Held for one shared_ptr
  /// copy (Acquire) or swap (publish) -- never across a query, never
  /// across snapshot construction -- so ingest can stall behind a
  /// reader for at most a refcount bump. (std::atomic<shared_ptr>
  /// would drop even that, but libstdc++'s lock-free protocol is
  /// opaque to TSan; a pointer-sized critical section keeps the
  /// concurrency tests sanitizer-clean.)
  mutable std::mutex state_mu_;
  std::shared_ptr<const ReplicaState> state_;
};

}  // namespace umicro::serve

#endif  // UMICRO_SERVE_REPLICA_H_
