// Maintained closest pair of a ClusterTable's centroid rows.
//
// UMicro merges the two closest micro-clusters whenever a creation
// pushes the set past its budget and no cluster is stale. Rescanning
// all q(q-1)/2 pairs for every such merge is O(q^2 d), yet between two
// merges only a handful of rows move: the clusters that absorbed a
// point, the new singleton and the merged cluster. This cache keeps,
// per row, the nearest other row and the squared distance to it (the
// dynamic-closest-pair idea of Eppstein, "Fast hierarchical clustering
// and other applications of dynamic closest pairs", ACM JEA 2000) and
// repairs only what changed, lazily, when the pair is asked for.
//
// A row whose neighbour was removed or moved away is not rescanned
// right away. Its old distance still bounds its distance to every row
// that has not moved since, so the row keeps it as a lower bound and
// collects the moved rows' distances as they are offered. Find rescans
// such a row only when its bound could reach the closest pair; most
// never do, and stay bounded across merges.
//
// Contract: Find returns exactly what ClosestCentroidPair on the same
// table and backend returns -- the same (a, b) and the same d2 bits.
// Every distance comes from RowPairDistances, bit-identical to the
// rebuild kernel's, and both resolve exact ties lexicographically on
// (min(a, b), max(a, b)), an order that survives the table's
// order-preserving row removal.
//
// The owner reports every mutation of the table's centroids through
// the Note* hooks (or Invalidate). The cache is derived state: it is
// never serialized, starts invalid and is built by the first Find, so
// owners that never ask for the pair pay only the O(1) hooks.

#ifndef UMICRO_KERNELS_CLOSEST_PAIR_CACHE_H_
#define UMICRO_KERNELS_CLOSEST_PAIR_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/cluster_table.h"
#include "kernels/dispatch.h"

namespace umicro::kernels {

/// Per-row nearest-neighbour cache over a ClusterTable's centroids.
class ClosestPairCache {
 public:
  /// Drops every entry; the next Find rebuilds from scratch. For
  /// mutations that move every centroid (decay, reset, restore).
  void Invalidate() { valid_ = false; }

  /// Row `i`'s centroid changed (a point was absorbed, or another row
  /// was merged into it).
  void NoteChanged(std::size_t i);

  /// A row was appended after the last one.
  void NoteAppend();

  /// Row `i` was removed and the later rows shifted down by one.
  void NoteRemove(std::size_t i);

  /// The closest pair of `table`'s rows (a < b) and its squared
  /// distance; requires at least two rows, and the same `backend` on
  /// every call between invalidations. Repairs the pending rows, or
  /// rebuilds with ClosestCentroidNeighbors when they would cost about
  /// as much as the full scan.
  void Find(const ClusterTable& table, Backend backend, std::size_t* out_a,
            std::size_t* out_b, double* out_d2);

  /// Rows Find has recomputed against every row since construction; a
  /// rebuild counts as one per row. Monotone.
  std::uint64_t rows_scanned() const { return rows_scanned_; }

  /// Brute-force check of the per-row entries against `table`, for
  /// tests and debug builds; call it between a Find and the next hook.
  /// Every clean row must hold its exact nearest neighbour and distance,
  /// every bounded row's bound must not exceed its true nearest
  /// distance, and every finite distance must be the exact distance to
  /// the row it names. Returns the first violation, or "" when all hold
  /// (trivially so while the cache is invalid).
  std::string CheckInvariants(const ClusterTable& table,
                              Backend backend) const;

 private:
  enum RowState : std::uint8_t {
    /// nn_/d2_ hold the row's exact nearest neighbour.
    kClean,
    /// The row's centroid moved: recompute it and offer it to the rest.
    kDirty,
    /// The row's neighbour vanished or moved away. lb_ bounds its
    /// distance to every row not offered to it since; nn_/d2_ hold the
    /// best offered row (d2_ is infinite when there is none).
    kBounded,
  };

  void Rebuild(const ClusterTable& table, Backend backend);

  /// Recomputes row `i`'s nearest neighbour against every row. With
  /// `offer` (i moved), each clean or bounded row also adopts i when i
  /// is now nearer than its entry; a clean row whose neighbour i moved
  /// away becomes bounded, and a bounded row whose best offer is
  /// strictly below its bound becomes clean.
  void RecomputeRow(const ClusterTable& table, Backend backend,
                    std::size_t i, bool offer);

  bool valid_ = false;
  std::vector<std::uint32_t> nn_;
  std::vector<double> d2_;
  /// Lower bound of a bounded row (unused in the other states).
  std::vector<double> lb_;
  std::vector<RowState> state_;
  /// Dirty rows of the current repair (scratch, reused across calls).
  std::vector<std::uint32_t> pending_;
  /// One row's distances to every row (RecomputeRow scratch).
  std::vector<double> row_d2_;
  std::uint64_t rows_scanned_ = 0;
};

}  // namespace umicro::kernels

#endif  // UMICRO_KERNELS_CLOSEST_PAIR_CACHE_H_
