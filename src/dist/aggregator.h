// Aggregator: root of the distributed merge tree.
//
// One TCP listener serves both planes of the tier on a single port,
// sniffed by the first byte of each accepted connection:
//
//   0xD7 (frame magic)  -> framed leaf session: HELLO, then
//                          sequence-numbered state-replacement DELTAs,
//                          each answered with an ACK;
//   anything else       -> text query session: the connection is wrapped
//                          in a net::SocketStream and handed to the
//                          serve::ServeLineProtocol loop unchanged.
//
// Leaves run the sequential engine, so a delta must be a single-shard
// "umicro" checkpoint; any other state is refused and counted as a
// protocol error.
//
// Delta application is state replacement keyed by leaf id: the newest
// state per leaf is kept as a core::LabeledFrame, the merged global view
// is rebuilt through parallel::MergeShardClusterSets -- the *same*
// routine the in-process sharded engine uses -- and its frame is
// published to the SnapshotReadReplica the query broker reads as one
// history frame per rebuild, retained under
// the pyramid of AggregatorOptions::snapshot (horizon queries subtract
// two of them). Because the merge is stateless over the current
// leaf states, re-applied or re-ordered deltas cannot corrupt anything:
// a delta with seq <= the last applied one is acked and ignored, and
// the final view depends only on each leaf's final state (which is what
// makes the multi-process topology bit-identical to a single-process
// sharded run over the same round-robin partitioning).
//
// Failover (docs/distributed.md): an aggregator started with
// `start_as_standby` merges warm-shipped deltas exactly like a primary
// (so its replica stays current) but reports role "standby" until a
// delta arrives with the primary flag set -- the leaves' signal that
// they have failed over to it -- at which point it promotes itself.
// With `stale_after_ms` > 0 the accept loop tracks per-leaf delta
// staleness and rebuilds the merged view *without* stale leaves: a
// degraded answer from the live part of the fleet, surfaced through
// the HEALTH verb and the STATS stale/degraded fields.
//
// Metrics: dist.agg.deltas_applied, dist.agg.deltas_duplicate,
// dist.agg.bytes, dist.agg.merges, dist.agg.merge_micros,
// dist.agg.merge_lag_points (max-min leaf progress), dist.agg.leaves,
// dist.agg.sessions, dist.agg.query_sessions, dist.agg.protocol_errors,
// dist.agg.promotions, dist.agg.leaf_stale.

#ifndef UMICRO_DIST_AGGREGATOR_H_
#define UMICRO_DIST_AGGREGATOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/microcluster.h"
#include "core/snapshot.h"
#include "dist/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "serve/query_broker.h"
#include "serve/replica.h"
#include "serve/server.h"

namespace umicro::dist {

/// Aggregator configuration.
struct AggregatorOptions {
  /// Bind address; port 0 picks an ephemeral port (re-read via port()).
  net::SocketAddress listen{"127.0.0.1", 0};
  /// Stream dimensionality (leaf HELLOs must match).
  std::size_t dimensions = 0;
  /// Reconciliation knob of the shard merge (must equal the leaves' /
  /// reference run's dimension_threshold for bit-identity).
  double dimension_threshold = 3.0;
  /// Micro-cluster budget of the merged view (must equal the reference
  /// sharded run's global budget).
  std::size_t global_budget = 100;
  /// Pyramid (alpha, l) retaining the replica's per-rebuild history
  /// frames, and the decay rate for horizon queries. snapshot_every and
  /// the tiering are not used: every rebuild is a history frame.
  core::SnapshotPolicy snapshot;
  double decay_lambda = 0.0;
  /// Query broker sizing.
  serve::QueryBrokerOptions broker;
  /// Per-read timeout of leaf sessions' poll slices and of query
  /// sessions' blocking reads (a silent query peer is hung up on after
  /// this long, and counted in dist.agg.protocol_errors).
  int io_timeout_ms = 60000;
  /// Start in the standby role: merge warm deltas, serve queries, but
  /// report "standby" until a primary-flagged delta promotes this node.
  bool start_as_standby = false;
  /// When > 0, a leaf whose newest delta is older than this (and that
  /// has not sent BYE) is considered stale and excluded from the merged
  /// view until it reports again. 0 disables liveness tracking.
  int stale_after_ms = 0;
};

/// Multi-leaf delta merge + query serving behind one listener.
class Aggregator {
 public:
  /// `metrics` (optional) receives the dist.agg.* instruments.
  explicit Aggregator(AggregatorOptions options,
                      obs::MetricsRegistry* metrics = nullptr);
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Binds, listens, and starts the accept loop. False on bind failure.
  bool Start();

  /// Closes the listener and every live session, then joins all threads.
  /// Idempotent.
  void Stop();

  /// The bound port (after Start()).
  std::uint16_t port() const { return port_; }

  /// Sum of the newest `points` figure over all known leaves.
  std::uint64_t total_points() const;

  /// Blocks until total_points() >= n; false on timeout or Stop().
  bool WaitForPoints(std::uint64_t n, int timeout_ms);

  /// Copy of the current merged global view; its frame's time is the
  /// newest stream timestamp across the merged leaf states.
  core::LabeledFrame MergedClusters() const;

  /// Leaves that have applied at least one delta.
  std::size_t leaves_known() const;

  /// Deltas applied (non-duplicate) so far.
  std::uint64_t deltas_applied() const;

  /// "primary" or "standby" (promotion is one-way).
  std::string role() const {
    return primary_.load(std::memory_order_relaxed) ? "primary" : "standby";
  }

  /// True once this node is (or was promoted to) the primary.
  bool is_primary() const {
    return primary_.load(std::memory_order_relaxed);
  }

  /// Leaves currently excluded from the merged view as stale.
  std::size_t stale_leaves() const;

  /// True when the merged view omits at least one stale leaf.
  bool degraded() const;

  /// Control-plane snapshot behind the ROLE/HEALTH serve verbs.
  serve::ServeStatus StatusSnapshot() const;

  /// The query broker (same answers in-process callers would get).
  serve::QueryBroker& broker() { return *broker_; }

 private:
  /// One accepted connection's lifetime, owned by the session table so
  /// Stop() can shut the socket down under a live session thread.
  struct Session {
    net::Socket socket;
    std::thread thread;
    /// Set by the session thread on exit; the accept loop joins and
    /// frees finished sessions so long-lived aggregators don't
    /// accumulate dead sockets across leaf reconnects.
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  /// Joins and frees sessions whose threads have finished.
  void ReapFinishedSessions();
  void RunSession(Session* session);
  /// Framed leaf plane (first byte was the frame magic).
  void LeafSession(net::Socket& socket);
  /// Text query plane.
  void QuerySession(net::Socket& socket);
  /// Applies one delta (or dedups it); true when an ACK should be sent.
  bool ApplyDelta(const DeltaMessage& delta);
  /// Records a leaf's orderly BYE (an exhausted leaf is never stale).
  void MarkLeafFinished(std::uint64_t leaf_id);
  /// Re-evaluates per-leaf staleness from the accept loop; rebuilds the
  /// merged view when membership changed. No-op unless stale_after_ms.
  void RefreshLiveness();
  /// Rebuilds merged view + replica publication. Caller holds state_mu_.
  void RebuildMergedViewLocked();

  const AggregatorOptions options_;

  obs::Counter* deltas_applied_metric_ = nullptr;
  obs::Counter* deltas_duplicate_metric_ = nullptr;
  obs::Counter* bytes_metric_ = nullptr;
  obs::Counter* merges_metric_ = nullptr;
  obs::Histogram* merge_micros_ = nullptr;
  obs::Gauge* merge_lag_gauge_ = nullptr;
  obs::Gauge* leaves_gauge_ = nullptr;
  obs::Counter* sessions_metric_ = nullptr;
  obs::Counter* query_sessions_metric_ = nullptr;
  obs::Counter* protocol_errors_metric_ = nullptr;
  obs::Counter* promotions_metric_ = nullptr;
  obs::Gauge* stale_gauge_ = nullptr;

  serve::SnapshotReadReplica replica_;
  std::unique_ptr<serve::QueryBroker> broker_;

  std::optional<net::TcpListener> listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  /// Guards the session table (accept thread inserts, Stop() walks).
  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;

  /// Newest state of one leaf.
  struct LeafEntry {
    std::uint64_t seq = 0;
    std::uint64_t points = 0;
    double last_timestamp = 0.0;
    core::LabeledFrame clusters;
    /// When the newest delta arrived (drives staleness).
    std::chrono::steady_clock::time_point last_delta{};
    /// Leaf sent BYE: its stream is complete, never stale.
    bool finished = false;
    /// Currently excluded from the merged view as stale.
    bool stale = false;
  };

  /// Promotion flag: standby -> primary, one-way.
  std::atomic<bool> primary_{true};

  /// Guards everything below; also serializes replica publications
  /// (SnapshotSink requires a single logical publisher).
  mutable std::mutex state_mu_;
  std::condition_variable points_cv_;
  std::map<std::uint64_t, LeafEntry> leaves_;
  core::LabeledFrame merged_;
  std::uint64_t deltas_applied_ = 0;
  /// Merged-view rebuilds so far: the replica history's snapshot clock.
  std::uint64_t rebuilds_ = 0;
  std::size_t stale_count_ = 0;
};

}  // namespace umicro::dist

#endif  // UMICRO_DIST_AGGREGATOR_H_
