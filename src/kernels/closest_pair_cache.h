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

 private:
  enum RowState : std::uint8_t {
    /// nn_/d2_ hold the row's exact nearest neighbour.
    kClean,
    /// The row's centroid moved: recompute it and offer it to the rest.
    kDirty,
    /// The row's neighbour vanished or moved away: recompute it.
    kOrphan,
  };

  void Rebuild(const ClusterTable& table, Backend backend);

  /// Recomputes row `i`'s nearest neighbour against every row. With
  /// `offer_to_clean` (i moved), each clean row also adopts i when i is
  /// now nearer than its neighbour, and becomes an orphan when i was its
  /// neighbour and moved farther away.
  void RecomputeRow(const ClusterTable& table, Backend backend,
                    std::size_t i, bool offer_to_clean);

  bool valid_ = false;
  std::vector<std::uint32_t> nn_;
  std::vector<double> d2_;
  std::vector<RowState> state_;
  /// Dirty rows of the current repair (scratch, reused across calls).
  std::vector<std::uint32_t> pending_;
  /// One row's distances to every row (RecomputeRow scratch).
  std::vector<double> row_d2_;
};

}  // namespace umicro::kernels

#endif  // UMICRO_KERNELS_CLOSEST_PAIR_CACHE_H_
