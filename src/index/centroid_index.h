// Candidate pruning for the closest-cluster scan (docs/indexing.md).
//
// The assignment hot path evaluates every arriving point against all q
// micro-clusters through the batch kernels -- O(q d) per point. A
// CentroidIndex cuts that to a shortlist: a spatial structure over a
// *snapshot* of the centroid rows returns every row whose expected
// distance (Lemma 2.2) could possibly win, and the exact SIMD kernels
// refine only those rows. Pruning is provably safe -- the shortlist
// always contains the row the full scan would pick, bit for bit:
//
//   * The expected distance of row i decomposes as D2_i + s_i + psi2
//     where D2_i is the geometric (centroid) term, s_i >= 0 is the
//     cluster-error constant sum_j EF2_j/n^2 read live from the
//     ClusterTable, and psi2 >= 0 is the same point constant for every
//     row. The index lower-bounds D2_i from the snapshot (kd-tree
//     bounding boxes and snapshot distances), deflated by a per-row *drift
//     bound* (the centroids move as points are absorbed; every move is
//     reported through NoteDrift) and inflated floating-point margins,
//     and prunes row i only when that bound exceeds a proven upper
//     bound on the eventual winner's score by more than the margin.
//   * Rows appended since the snapshot are always candidates.
//   * Structural mutations (row removal, merge, restore) shift row ids;
//     the owner calls Invalidate() and the next Collect() rebuilds.
//
// The dimension-counting similarity is *not* served by this index: a
// dimension pruned by the vote (inv_j = 0) contributes arbitrarily much
// Euclidean distance at zero vote cost, so no Euclidean bound can
// safely prune the vote's argmax (counterexample in docs/indexing.md).
// core::UMicro only consults the index on the expected-distance path.

#ifndef UMICRO_INDEX_CENTROID_INDEX_H_
#define UMICRO_INDEX_CENTROID_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kernels/cluster_table.h"

namespace umicro::index {

/// Which candidate structure the assignment scan runs behind.
enum class IndexKind {
  /// No index: every scan is the exact full kernel scan (zero overhead).
  kFlat,
  /// Median-split kd-tree over the snapshot centroids.
  kKdTree,
  /// kKdTree gated to engage only once q is large enough to win
  /// (min_rows = 64); below that every query falls back to the flat
  /// scan.
  kAuto,
};

/// "flat" | "kdtree" | "auto".
const char* IndexKindName(IndexKind kind);

/// Inverse of IndexKindName; nullopt for unknown names.
std::optional<IndexKind> ParseIndexKind(const std::string& name);

/// Cumulative counters, monotone over an index's lifetime.
struct IndexStats {
  /// Collect() calls answered with a shortlist.
  std::uint64_t queries = 0;
  /// Collect() calls answered "run the full scan" (q below min_rows).
  std::uint64_t fallbacks = 0;
  /// Sum of shortlist sizes over answered queries.
  std::uint64_t candidates = 0;
  /// Sum of q over answered queries (what the full scan would have
  /// cost); 1 - candidates/scanned_rows is the prune ratio.
  std::uint64_t scanned_rows = 0;
  /// Snapshot rebuilds.
  std::uint64_t rebuilds = 0;
};

/// Candidate generator over the SoA centroid table: a median-split
/// kd-tree over the snapshot centroids. The build splits recursively on
/// the widest dimension down to kLeafSize rows (a node whose bounding
/// box has zero extent becomes a leaf, so identical centroids
/// terminate). A query greedily descends to the nearest leaf to seed the
/// winner's upper bound, then depth-first collects every row whose
/// drift-deflated bounding-box / snapshot-distance lower bound stays
/// within the effective upper bound.
class CentroidIndex {
 public:
  /// kd-tree leaf capacity.
  static constexpr std::size_t kLeafSize = 8;
  /// Rebuild once appended rows exceed max(kMinAppendedRebuild,
  /// built/4).
  static constexpr std::size_t kMinAppendedRebuild = 32;
  /// Rebuild once the accumulated drift bound exceeds this fraction of
  /// the snapshot's bounding-box diagonal.
  static constexpr double kDriftRebuildFraction = 0.125;

  /// Collect() answers "full scan" below `min_rows` rows.
  explicit CentroidIndex(std::size_t min_rows) : min_rows_(min_rows) {}

  CentroidIndex(const CentroidIndex&) = delete;
  CentroidIndex& operator=(const CentroidIndex&) = delete;

  /// Structure name ("kdtree").
  const char* name() const { return "kdtree"; }

  // ---- O(1) owner hooks: every table mutation is reported -----------

  /// One row was appended at the end of the table.
  void NoteAppend() { ++appended_; }

  /// Row `row`'s centroid moved by at most `distance` (Euclidean, real
  /// arithmetic); the index inflates it with floating-point slack.
  void NoteDrift(std::size_t row, double distance);

  /// Every statistic was scaled by one factor (decay). Centroids are
  /// invariant in real arithmetic; their re-derivation perturbs each
  /// coordinate by a few ulp, accounted per scale event.
  void NoteScale() { ++scale_events_; }

  /// Row ids shifted or state was replaced (removal, merge, restore):
  /// the snapshot is unusable, rebuild at the next Collect().
  void Invalidate() { dirty_ = true; }

  // ---- Query ---------------------------------------------------------

  /// Collects the candidate shortlist for point `x` (first table.dims()
  /// entries read). Returns false when the caller should run the full
  /// scan instead (q below min_rows). On true, `out` holds strictly
  /// ascending row ids guaranteed to contain the index the full
  /// BatchSquaredDistances + ArgMin scan would return, for
  /// DistanceKind::kExpected when `include_cluster_error` (pass the
  /// point's psi2 constant) and kGeometric otherwise (pass 0).
  bool Collect(const kernels::ClusterTable& table, const double* x,
               bool include_cluster_error, double point_error2,
               std::vector<std::uint32_t>* out);

  const IndexStats& stats() const { return stats_; }

 private:
  /// Relative safety margin on every index-side bound. Nine orders of
  /// magnitude above the worst-case kernel reduction error for d <= 64
  /// (~1.06 * (stride+4) * DBL_EPSILON ~ 1.6e-14), so index bounds
  /// dominate every rounding difference between tiers and summation
  /// orders, including the kernel's final +s_i +psi2 additions.
  static constexpr double kRelMargin = 1e-9;

  struct Node {
    std::uint32_t begin = 0;  // range [begin, end) of perm_
    std::uint32_t end = 0;
    std::int32_t left = -1;  // -1 = leaf
    std::int32_t right = -1;
  };

  bool NeedsRebuild(const kernels::ClusterTable& table) const;
  void Rebuild(const kernels::ClusterTable& table);

  /// Builds the tree over the freshly copied snapshot
  /// (snap_centroid(i), i < built_rows_).
  void BuildTree();
  std::int32_t BuildNode(std::uint32_t begin, std::uint32_t end,
                         std::int32_t parent);

  const double* snap_centroid(std::size_t row) const {
    return &snap_[row * snap_stride_];
  }

  /// Squared distance of the padded query to the snapshot centroid of
  /// `row`, on the snapshot's SIMD tier.
  double SnapDist2(std::size_t row, const double* x) const;

  /// Squared distance of x to node `n`'s bounding box (0 inside).
  double NodeDist2(std::size_t n, const double* x) const;

  /// Upper bound on how far row `row`'s live centroid can be from its
  /// snapshot position (drift + per-scale-event ulp slack).
  double QueryDrift(std::size_t row) const {
    return drift_[row] + query_scale_ulp_ * snap_norm_[row];
  }

  /// Worst drift-plus-ulp slack over the rows of node `n`'s subtree
  /// (kept current by NoteDrift), mirroring QueryDrift per row.
  double NodeQueryDrift(std::size_t n) const {
    return node_drift_[n] + query_scale_ulp_ * node_norm_[n];
  }

  /// score_row >= RowLower: snapshot distance deflated by margins and
  /// drift, squared, plus the live cluster-error constant `s`.
  double RowLower(std::size_t row, double snap_dist, double s) const {
    double lo = snap_dist * (1.0 - kRelMargin) - QueryDrift(row);
    if (lo < 0.0) lo = 0.0;
    return lo * lo + s;
  }

  /// score_row <= RowUpper (used to tighten `upper` from seeds).
  double RowUpper(std::size_t row, double snap_dist, double s) const {
    const double hi = snap_dist * (1.0 + kRelMargin) + QueryDrift(row);
    return hi * hi * (1.0 + kRelMargin) + s;
  }

  /// The pruning threshold: rows (and nodes) whose lower bound exceeds
  /// this cannot round to a kernel score at or below the winner's. The
  /// absolute (upper + psi2) term keeps ties safe even when psi2 dwarfs
  /// the distances (e.g. an exact duplicate of a zero-error centroid:
  /// every score rounds to psi2 and the full scan picks the first row).
  static double EffectiveUpper(double upper, double point_error2) {
    return upper + (upper + point_error2) * kRelMargin;
  }

  /// Live cluster-error constant of the kExpected score (0 for
  /// kGeometric).
  static double RowErrorTerm(const kernels::ClusterTable& table,
                             std::size_t row, bool include_cluster_error) {
    return include_cluster_error ? table.ef2n2_sum(row) : 0.0;
  }

  /// Tightens `upper` over the rows of the leaf nearest to x.
  void SeedFromNearestLeaf(const kernels::ClusterTable& table,
                           const double* x, bool include_cluster_error,
                           double* upper) const;

  /// Appends the candidates of node `n`'s subtree to `out`, tightening
  /// `upper` / `effective` as closer rows are found.
  void CollectNode(std::size_t n, double node_dist2,
                   const kernels::ClusterTable& table, const double* x,
                   bool include_cluster_error, double point_error2,
                   double* upper, double* effective,
                   std::vector<std::uint32_t>* out) const;

  const std::size_t min_rows_;
  IndexStats stats_;

  // Snapshot (stride-padded copies of the centroid rows at build time;
  // rows keep the table's zero-padded stride so the SIMD row reduction
  // applies unchanged).
  std::size_t built_rows_ = 0;
  std::size_t dims_ = 0;
  std::size_t snap_stride_ = 0;
  kernels::Backend snap_backend_ = kernels::Backend::kScalar;
  std::vector<double> snap_;
  /// Query staged to snap_stride_ with zero padding (so the padded SIMD
  /// row reduction runs against snapshot rows).
  std::vector<double> padded_x_;
  /// Margin-inflated centroid norms (scale-event ulp slack is
  /// proportional to the coordinate magnitudes).
  std::vector<double> snap_norm_;
  double max_norm_ = 0.0;
  /// Bounding-box diagonal of the snapshot (rebuild-cadence yardstick).
  double diag_ = 0.0;

  // Staleness accounting since the snapshot.
  std::vector<double> drift_;
  double max_drift_ = 0.0;
  std::uint64_t scale_events_ = 0;
  std::size_t appended_ = 0;
  bool dirty_ = true;
  /// 16 ulp of per-coordinate slack per scale event, frozen per query.
  double query_scale_ulp_ = 0.0;

  // The kd-tree over the snapshot rows.
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> perm_;
  // Per-node bounding boxes, snap_stride_ doubles each.
  std::vector<double> bbox_min_;
  std::vector<double> bbox_max_;
  // Subtree maxima for the node-level prune slack.
  std::vector<std::int32_t> parent_;
  std::vector<double> node_drift_;
  std::vector<double> node_norm_;
  // Row -> owning leaf (drift bubbles leaf-to-root).
  std::vector<std::uint32_t> leaf_of_row_;
};

/// Builds the index for `kind`; nullptr for kFlat (callers treat a null
/// index as "always full scan", which keeps the flat path zero-cost).
std::unique_ptr<CentroidIndex> MakeCentroidIndex(IndexKind kind);

}  // namespace umicro::index

#endif  // UMICRO_INDEX_CENTROID_INDEX_H_
