// Cluster-vs-cluster similarity scored across pairs.
//
// The sharded merge (parallel::MergeShardClusterSets) scores every pair
// of the concatenated shard clusters with the dimension-counting vote
// lifted to cluster-vs-cluster (parallel::ClusterSimilarity). This
// kernel computes the same scores from per-row terms staged once per
// merge, one row against all later rows per call.
//
// Exactness contract: bit-identical on every tier, and bit-identical to
// parallel::ClusterSimilarity. That is stronger than the tolerance
// contract of the point-scan reductions in kernels.h, and it holds
// because vector lanes run across *pairs*, never across dimensions:
// each pair accumulates over j in ascending order, with a separate
// multiply and add (no FMA), exactly as the scalar loop does. The union
// order of the merge, and so every merged view, does not depend on the
// tier.

#ifndef UMICRO_KERNELS_PAIR_SIMILARITY_H_
#define UMICRO_KERNELS_PAIR_SIMILARITY_H_

#include <cstddef>
#include <vector>

#include "kernels/dispatch.h"

namespace umicro::kernels {

/// Per-row terms of the cluster-vs-cluster similarity, stored
/// dimension-major: column j holds every row's centroid cf1_j·(1/n),
/// and a second column its error term ef2_j·(1/n)² (Lemma 2.1). Each
/// column is stride() long: the row count rounded up to whole vector
/// blocks, zero-padded.
class PairTermTable {
 public:
  /// A zero-filled table for `rows` clusters of `dims` dimensions.
  PairTermTable(std::size_t dims, std::size_t rows);

  /// Stores row `i`'s terms from its raw statistics (arrays of length
  /// dims()). `weight` must be positive.
  void SetRow(std::size_t i, const double* cf1, const double* ef2,
              double weight);

  std::size_t dims() const { return dims_; }
  std::size_t rows() const { return rows_; }
  std::size_t stride() const { return stride_; }

  /// Every row's centroid coordinate j (stride() entries).
  const double* centroid_column(std::size_t j) const {
    return centroid_.data() + j * stride_;
  }
  /// Every row's error term j (stride() entries).
  const double* error_column(std::size_t j) const {
    return error_.data() + j * stride_;
  }

 private:
  std::size_t dims_;
  std::size_t rows_;
  std::size_t stride_;
  std::vector<double> centroid_;
  std::vector<double> error_;
};

/// Scores row `a` against every later row. For each b in (a, rows()),
/// with g_j = (c_aj − c_bj)²:
///   d2[b]   = Σ_j g_j, the squared centroid distance;
///   vote[b] = Σ_{j : inv_scaled[j] > 0} max{0, 1 − ((g_j + e_aj) + e_bj)
///             · inv_scaled[j]},
/// the per-dimension votes, where `inv_scaled` (dims() entries) caches
/// 1/(thresh·σ_j²) and is 0 on dead dimensions. `vote` and `d2` must
/// hold stride() doubles; entries outside (a, rows()) are unspecified.
/// Tiers: scalar and AVX2.
void PairSimilarityRow(const PairTermTable& terms, const double* inv_scaled,
                       std::size_t a, Backend backend, double* vote,
                       double* d2);

}  // namespace umicro::kernels

#endif  // UMICRO_KERNELS_PAIR_SIMILARITY_H_
