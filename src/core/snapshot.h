// Pyramidal time frame storage (Section II-D).
//
// Micro-cluster statistics are saved at snapshot instants. Snapshots are
// classified into orders: a clock tick t belongs to order i when t is
// divisible by alpha^i (we store it at its highest such order, as in the
// CluStream framework), and at most alpha^l + 1 snapshots are retained
// per order. For any user horizon h there then exists a stored snapshot
// at h' close to h (Eq. 7 states |h - h'| / h <= 1/alpha^l; the bound
// provable for this retention policy -- and the one CluStream's Property
// 1 actually establishes -- is 2/alpha^(l-1), with the 1/alpha^l figure
// holding for alpha = 2 and empirically for small alpha), and the
// additive/subtractive ECF properties recover the statistics of exactly
// the window (t_c - h', t_c].
//
// Frame encodings (docs/snapshots.md): each order ring holds its newest
// frame ("hot") as the verbatim flat frame. In delta mode older frames
// in the ring ("warm") keep only the records whose bits differ from the
// next-newer frame -- reconstruction re-reads unchanged records from the
// parent, so a materialized warm frame is bit-identical to what the full
// store would have returned. Both encodings are lossless; the pyramid's
// retention rule alone bounds what the store holds.

#ifndef UMICRO_CORE_SNAPSHOT_H_
#define UMICRO_CORE_SNAPSHOT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cluster_feature.h"

namespace umicro::core {

/// Frozen state of one micro-cluster: the edge form of one snapshot
/// record (io, tests and horizon windows build and read these).
struct MicroClusterState {
  std::uint64_t id = 0;
  double creation_time = 0.0;
  ErrorClusterFeature ecf;
};

/// Frozen state of the whole micro-cluster set at one instant: a flat
/// frame of records in one allocation.
///
/// Record i is RecordSize(dims()) doubles, row-major:
///   [id, creation_time, weight, last_update_time, cf1[d], cf2[d], ef2[d]]
/// where the id slot holds the bits of the 64-bit id. Copying a record
/// is one memcpy and comparing two records is one memcmp, bit for bit
/// (-0.0 against 0.0 and NaN payloads differ). A producer appends its
/// records once; a published frame (shared_ptr<const Snapshot>) is
/// never mutated.
class Snapshot {
 public:
  /// Slots ahead of the three statistic rows: id, creation time,
  /// weight, last-update time.
  static constexpr std::size_t kHeaderSlots = 4;

  /// Doubles per record of a `dims`-dimensional frame.
  static constexpr std::size_t RecordSize(std::size_t dims) {
    return kHeaderSlots + 3 * dims;
  }

  Snapshot() = default;

  /// An empty frame at `time` for `dims`-dimensional records, with room
  /// for `capacity` records allocated up front.
  Snapshot(double time, std::size_t dims, std::size_t capacity = 0);

  /// Builds a frame from edge-form states, which must share one
  /// dimensionality (checked).
  static Snapshot FromStates(double time,
                             std::span<const MicroClusterState> states);

  /// Stream time at which the snapshot was taken.
  double time = 0.0;

  /// Number of records (micro-clusters).
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Point dimensionality of the records; 0 for an empty frame.
  std::size_t dims() const { return size_ == 0 ? 0 : dims_; }

  /// Record `i` as RecordSize(dims()) doubles.
  const double* record(std::size_t i) const {
    return records_.data() + i * RecordSize(dims_);
  }
  /// Writable record `i`, for the producer folding into records it
  /// appended (before the frame is published).
  double* mutable_record(std::size_t i) {
    return records_.data() + i * RecordSize(dims_);
  }

  std::uint64_t id(std::size_t i) const {
    return std::bit_cast<std::uint64_t>(record(i)[0]);
  }
  double creation_time(std::size_t i) const { return record(i)[1]; }
  /// n(C) (or W(C) under decay) of record `i`.
  double weight(std::size_t i) const { return record(i)[2]; }
  double last_update_time(std::size_t i) const { return record(i)[3]; }
  /// The ECF rows of record `i`, dims() doubles each.
  const double* cf1(std::size_t i) const { return record(i) + kHeaderSlots; }
  const double* cf2(std::size_t i) const { return cf1(i) + dims_; }
  const double* ef2(std::size_t i) const { return cf2(i) + dims_; }

  /// Record `i` in edge form (a fresh ECF, bit-identical to the record).
  MicroClusterState State(std::size_t i) const;

  /// Appends one record from its fields; the rows are dims doubles each.
  void Append(std::uint64_t id, double creation_time, double weight,
              double last_update_time, const double* cf1, const double* cf2,
              const double* ef2);

  /// Appends a verbatim copy of `record` (RecordSize(dims) doubles, e.g.
  /// another frame's record(i)).
  void AppendRecord(const double* record);

 private:
  /// Dimensionality records are appended with (dims() reads 0 while the
  /// frame is empty).
  std::size_t dims_ = 0;
  std::size_t size_ = 0;
  std::vector<double> records_;
};

/// How the store represents retained frames.
enum class SnapshotStoreMode : std::uint8_t {
  /// Every frame is a verbatim flat frame (the classic store).
  kFull = 0,
  /// Ring heads stay verbatim; older frames are delta-encoded against
  /// their pyramid parent. Lossless: materialization is bit-identical.
  kDelta = 1,
};

/// Store-encoding configuration carried inside SnapshotPolicy.
struct SnapshotTiering {
  SnapshotStoreMode mode = SnapshotStoreMode::kFull;
};

/// Shared snapshot/pyramid configuration of the engines (sequential and
/// sharded): how often to snapshot and how the pyramidal store retains.
struct SnapshotPolicy {
  /// Stream points between automatic snapshots; 0 disables automatic
  /// snapshotting entirely (horizon queries then see only the live
  /// state).
  std::size_t snapshot_every = 100;
  /// Pyramidal geometric base alpha (>= 2).
  std::size_t pyramid_alpha = 2;
  /// Pyramidal precision l (>= 1): alpha^l + 1 snapshots kept per order.
  std::size_t pyramid_l = 3;
  /// Store encoding (full / delta).
  SnapshotTiering tiering;
};

/// Selection key of one retained frame: its stream time and its clock
/// tick (ticks are unique; they order frames of equal time).
struct FrameKey {
  double time = 0.0;
  std::uint64_t tick = 0;
};

/// Which retained frames a horizon query may subtract for a target time
/// t_c - h (Eq. 7), and in what order it tries them.
enum class FramePick : std::uint8_t {
  /// Frames at or before the target, newest (time, tick) first.
  kAtOrBefore,
  /// Every frame by nearness: smallest |time - target|, then the later
  /// time, then the newer tick.
  kNearest,
};

/// The one frame-selection rule of a horizon query for target time
/// `target`: which frames `pick` admits, and in what order they are
/// tried. The store's finders and the query broker's pick over a read
/// replica's history both rank with it.
struct FrameRank {
  double target = 0.0;
  FramePick pick = FramePick::kAtOrBefore;

  /// Whether `pick` admits `frame`.
  bool Admits(const FrameKey& frame) const {
    return pick == FramePick::kNearest || frame.time <= target;
  }

  /// Whether `a` is tried before `b` (a strict total order over frames
  /// with distinct ticks).
  bool operator()(const FrameKey& a, const FrameKey& b) const;
};

/// Representation of one retained frame.
enum class FrameEncoding : std::uint8_t {
  kFull = 0,   ///< verbatim flat frame
  kDelta = 1,  ///< ids + records whose bits differ from the parent
};

/// One retained frame in encoded form. Exactly one payload member is
/// populated, selected by `encoding`.
struct EncodedFrame {
  std::uint64_t tick = 0;
  double time = 0.0;
  FrameEncoding encoding = FrameEncoding::kFull;
  /// Number of micro-clusters in the materialized frame (both encodings).
  std::size_t cluster_count = 0;
  /// Point dimensionality of the frame's clusters (0 when empty).
  std::size_t dims = 0;
  /// kFull payload: the immutable frame itself, shared with every sink
  /// it was published to (a replica's ring holds the same object).
  std::shared_ptr<const Snapshot> full;
  /// kDelta payload: the frame's full id sequence plus, as a flat frame,
  /// the records whose bit pattern differs from the parent frame's
  /// same-id record.
  std::vector<std::uint64_t> ids;
  Snapshot changed;
};

/// Complete serializable state of a SnapshotStore (checkpoint/restore).
/// `orders[i]` mirrors the store's order-i ring, oldest first, in encoded
/// form; restoring into a store configured with the same alpha/l
/// reproduces retention exactly (restore rejects a mismatch).
struct SnapshotStoreState {
  std::uint64_t last_tick = 0;
  std::size_t alpha = 0;
  std::size_t l = 0;
  std::vector<std::vector<EncodedFrame>> orders;
};

/// Storage-tier accounting, queried by engines for snapshot.* metrics.
struct SnapshotTierStats {
  std::size_t frames = 0;
  std::size_t delta_frames = 0;
  /// Approximate resident bytes of the encoded frames.
  std::size_t approx_bytes = 0;
  /// What the same retention would occupy in the full-array store.
  std::size_t full_equivalent_bytes = 0;
  /// approx_bytes / full_equivalent_bytes (1.0 when empty).
  double delta_ratio = 1.0;
  /// Cumulative materializations of non-full frames.
  std::uint64_t reconstructions = 0;
};

/// Receiver of snapshot publications (the serve layer's read replica).
///
/// Engines call this on the ingest/coordinator thread, never
/// concurrently with itself; implementations make the published state
/// visible to readers on other threads (see serve/replica.h). Frames
/// arrive as immutable shared objects: a sink keeps the pointer it is
/// given, so publishing never copies a frame.
class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;

  /// A pyramidal-cadence snapshot taken at clock `tick` was just stored.
  /// Ticks arrive in increasing order, so inserting them into a
  /// SnapshotStore of the same alpha and l reproduces the engine store's
  /// retention exactly; the tick breaks ties between frames of equal
  /// time.
  virtual void PublishSnapshot(std::uint64_t tick,
                               std::shared_ptr<const Snapshot> snapshot) = 0;

  /// A fresh off-cadence view of the live state (attach / flush /
  /// quiesce): becomes the replica's "current" snapshot but does not
  /// enter pyramidal retention.
  virtual void PublishCurrent(std::shared_ptr<const Snapshot> snapshot) = 0;
};

/// Pyramidal retention store for snapshots, full or delta-encoded.
class SnapshotStore {
 public:
  /// `alpha` >= 2 is the geometric base; `l` >= 1 controls precision:
  /// each order keeps alpha^l + 1 snapshots and horizons are then
  /// approximable within a factor 1/alpha^l. Default tiering keeps every
  /// frame verbatim (the classic store).
  SnapshotStore(std::size_t alpha, std::size_t l);
  SnapshotStore(std::size_t alpha, std::size_t l, SnapshotTiering tiering);

  /// Stores `snapshot`, which was taken at integer clock `tick` >= 1.
  /// Ticks must be inserted in increasing order. In delta mode
  /// the ring's previous head is re-encoded against the new frame (its
  /// changed records are copied; the frame itself is never mutated, so
  /// it may be shared with a sink). Returns the tick of the frame the
  /// insert evicted from its ring, if any.
  std::optional<std::uint64_t> Insert(std::uint64_t tick,
                                      std::shared_ptr<const Snapshot> snapshot);
  std::optional<std::uint64_t> Insert(std::uint64_t tick, Snapshot snapshot) {
    return Insert(tick, std::make_shared<const Snapshot>(std::move(snapshot)));
  }

  /// Pyramidal classification of `tick` (>= 1): the largest order i with
  /// alpha^i dividing tick. A frame of order i enters retention ring i.
  std::size_t OrderOf(std::uint64_t tick) const;

  /// The first retained frame in FrameRank{target, pick} order that
  /// materializes: a kFull frame is the store's own shared frame, a
  /// delta frame is materialized into a new one. A frame that fails to
  /// materialize (a restored delta whose donor record is missing) is
  /// skipped and the next candidate answers instead. Null when no frame
  /// answers.
  std::shared_ptr<const Snapshot> Find(double target, FramePick pick) const;

  /// A copy of Find(time, FramePick::kAtOrBefore).
  std::optional<Snapshot> FindAtOrBefore(double time) const;

  /// A copy of Find(time, FramePick::kNearest).
  std::optional<Snapshot> FindNearest(double time) const;

  /// Total number of snapshots currently retained (storage-cost metric).
  std::size_t TotalStored() const;

  /// Primes `sink` with every retained frame as PublishSnapshot(tick,
  /// frame), in increasing tick order (attach after recovery). Frames are
  /// handed over as Find hands them out; frames that fail to materialize
  /// are skipped.
  void PrimeSink(SnapshotSink& sink) const;

  /// Number of order levels currently in use.
  std::size_t NumOrders() const { return orders_.size(); }

  /// Frames retained in order ring `order`.
  std::size_t OrderSize(std::size_t order) const {
    return orders_[order].size();
  }

  /// Encoded form of frame `index` (oldest first) of ring `order`;
  /// exposed for tests and byte accounting.
  const EncodedFrame& FrameAt(std::size_t order, std::size_t index) const {
    return orders_[order][index];
  }

  /// Materializes frame `index` of ring `order`. nullopt only when a
  /// delta frame on its chain names an id with no donor record.
  std::optional<Snapshot> MaterializeFrame(std::size_t order,
                                           std::size_t index) const;

  /// Per-order retention capacity: alpha^l + 1.
  std::size_t CapacityPerOrder() const { return capacity_per_order_; }

  /// Geometric base alpha.
  std::size_t alpha() const { return alpha_; }

  /// Pyramidal precision l.
  std::size_t l() const { return l_; }

  /// Storage-tier accounting. Byte totals are recomputed on call from
  /// each frame's header (cluster count, dims, payload sizes), O(frames)
  /// and independent of the cluster count; counters are cumulative since
  /// construction/restore.
  SnapshotTierStats TierStats() const;

  /// Captures the complete retention state for checkpointing. Frames are
  /// exported in their encoded form (deltas stay deltas); a kFull frame
  /// is exported as the same immutable object.
  SnapshotStoreState ExportState() const;

  /// Restores a previously exported state, replacing current contents
  /// (kFull frames are shared, not copied). Fails fast (returning false,
  /// with a diagnostic in `*error` when non-null) if the state was
  /// exported under a different alpha/l or violates ring invariants --
  /// restoring such a state would silently truncate or overfill the
  /// order rings. On failure the store is left unchanged.
  [[nodiscard]] bool RestoreState(const SnapshotStoreState& state,
                                  std::string* error = nullptr);

 private:
  /// Re-encodes the given kFull frame as a delta against `parent` (the
  /// next-newer frame's materialized contents), copying the records
  /// whose bytes differ.
  static void EncodeDelta(EncodedFrame& frame, const Snapshot& parent);

  /// Materializes frame `index` of `ring`, resolving delta chains
  /// rightwards (towards newer frames) to the first kFull frame.
  std::optional<Snapshot> MaterializeIndex(const std::deque<EncodedFrame>& ring,
                                           std::size_t index) const;

  /// Frame `index` of `ring` as a shared frame: a kFull frame is shared,
  /// any other is materialized. Null when materialization fails.
  std::shared_ptr<const Snapshot> SharedFrame(
      const std::deque<EncodedFrame>& ring, std::size_t index) const;

  /// Approximate resident bytes of one encoded frame, from its header:
  /// O(1), equal to summing every cluster's bytes since a frame has a
  /// single dimensionality.
  static std::size_t FrameBytes(const EncodedFrame& frame);

  /// Bytes the frame would occupy in the full-array store.
  static std::size_t FullEquivalentBytes(const EncodedFrame& frame);

  std::size_t alpha_;
  std::size_t l_;
  std::size_t capacity_per_order_;
  SnapshotTiering tiering_;
  std::uint64_t last_tick_ = 0;
  /// orders_[i] holds the most recent snapshots of order i, oldest first.
  std::vector<std::deque<EncodedFrame>> orders_;
  /// Cumulative reconstruction counter (mutated on const query paths;
  /// the store has a single-threaded ownership contract).
  mutable std::uint64_t reconstructions_ = 0;
};

/// Horizon extraction via subtractivity: returns the micro-cluster
/// statistics covering the window (older.time, current.time].
///
/// Clusters present in both snapshots have the older statistics
/// subtracted; clusters created after the older snapshot are retained in
/// their current form; clusters that vanished in between are discarded
/// (they live only in `older`).
///
/// With exponential time decay enabled (`decay_lambda` > 0, Definition
/// 2.3), the live statistics at current.time have been scaled by
/// 2^(-lambda * dt) since the older snapshot was taken; the older ECFs
/// are therefore scaled by the same elapsed factor before subtracting,
/// so the residual is exactly the decayed window mass. Subtracting the
/// older snapshot raw (the pre-fix behaviour) over-subtracts fresh mass
/// and retains stale mass.
///
/// Residuals whose weight is negligible -- below an absolute floor or
/// below a small fraction of the (scaled) subtracted weight, i.e. pure
/// floating-point cancellation noise -- are dropped; keeping them used
/// to hand macro-clustering centroids at noise/noise coordinates far
/// outside the data bounding box. When the gap is long enough that the
/// older snapshot's mass has fully decayed (zero or denormal scaled
/// weight), nothing is subtracted and clusters whose own weight has also
/// decayed away are dropped, so the window comes back empty instead of
/// populated with denormal-noise centroids.
std::vector<MicroClusterState> SubtractSnapshot(const Snapshot& current,
                                                const Snapshot& older,
                                                double decay_lambda = 0.0);

}  // namespace umicro::core

#endif  // UMICRO_CORE_SNAPSHOT_H_
