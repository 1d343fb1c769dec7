// Batched scan kernels over the SoA micro-cluster table.
//
// These are the read-side kernels of the layer: each evaluates one point
// (or the table against itself) across all q rows in a single pass.
// They are reduction kernels under the exactness contract of
// dispatch.h -- the SSE2/AVX2 tiers reassociate the per-dimension sums
// (and use FMA), so tiers agree with the scalar reference only to
// floating-point tolerance. The scalar tier reproduces the exact
// left-to-right accumulation of the pre-kernel loops in core::UMicro.
//
// All kernels consume the zero-padded stride layout of ClusterTable:
// padded lanes contribute exactly 0 to every sum and vote, so no scalar
// remainder loops exist in any tier.

#ifndef UMICRO_KERNELS_KERNELS_H_
#define UMICRO_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/cluster_table.h"
#include "kernels/dispatch.h"

namespace umicro::kernels {

/// Per-point precomputation staged into padded buffers, built once per
/// point (O(d)) and reused by every batch kernel call for that point
/// (O(q*d) work amortized over it).
struct PointContext {
  /// Stages point (values, errors) for a scan against `table`.
  /// `errors` may be null (deterministic point). `inv_scaled_variances`
  /// is the cached 1/(thresh*sigma_j^2) vector (zero entries mark
  /// pruned, zero-variance dimensions); it may be null when only
  /// distance kernels will run.
  void Prepare(const ClusterTable& table, const double* values,
               const double* errors, const double* inv_scaled_variances);

  std::size_t dims = 0;
  std::size_t stride = 0;

  /// Point instantiation, padded with zeros.
  std::vector<double> x;
  /// base[j] = mask[j] - psi_j^2 * inv_scaled[j]: the vote an exact
  /// centroid match earns on dimension j (mask is 1 where the dimension
  /// counts, 0 where pruned). Zero-filled when inv_scaled was null.
  std::vector<double> base;
  /// Padded copy of 1/(thresh*sigma_j^2); zeros beyond dims and on
  /// pruned dimensions.
  std::vector<double> inv_scaled;
  /// sum_j psi_j^2 -- the point's own error constant of Lemma 2.2.
  double psi2_sum = 0.0;
};

/// Which squared distance BatchSquaredDistances evaluates.
enum class DistanceKind {
  /// Lemma 2.2: geometric-to-centroid + EF2/n^2 + psi^2, clamped at 0.
  kExpected,
  /// Instantiation to expected centroid only.
  kGeometric,
};

/// Dimension-counting similarity (Section II-B) of the staged point
/// against every row: out[i] = sum_j max{0, base[j] - dist2_j *
/// inv_scaled[j]} with dist2_j = (x_j - centroid_ij)^2, plus the row's
/// EF2_j/n^2 when `include_cluster_error` (the paper-literal form).
/// `out` must hold table.rows() doubles.
void BatchDimensionVotes(const ClusterTable& table, const PointContext& ctx,
                         bool include_cluster_error, Backend backend,
                         double* out);

/// Squared distance of the staged point to every row; `out` must hold
/// table.rows() doubles.
void BatchSquaredDistances(const ClusterTable& table, const PointContext& ctx,
                           DistanceKind kind, Backend backend, double* out);

/// Squared distance of the staged point to each of the `count` listed
/// rows (an index shortlist; see index/centroid_index.h): out[k] is the
/// value BatchSquaredDistances would write for row rows[k], computed by
/// the identical per-row reduction -- bit-identical, so ArgMin over a
/// strictly ascending shortlist that contains the full scan's winner
/// reproduces the full scan's first-wins choice exactly.
void GatherSquaredDistances(const ClusterTable& table, const PointContext& ctx,
                            DistanceKind kind, Backend backend,
                            const std::uint32_t* rows, std::size_t count,
                            double* out);

/// Squared Euclidean distance between two stride-length padded rows on
/// the requested tier (the single-row reduction behind the batch scans;
/// exported for the index layer's snapshot geometry).
double RowSquaredDistance(Backend backend, const double* a, const double* b,
                          std::size_t stride);

/// Squared Euclidean distance from point `x` to the axis-aligned box
/// [lo, hi] (0 inside), over stride-length padded rows; padded lanes
/// must carry lo = hi = 0 so a zero-padded point contributes nothing.
double BoxSquaredDistance(Backend backend, const double* x, const double* lo,
                          const double* hi, std::size_t stride);

/// Cache-blocked all-pairs scan that fills, for every row i, its
/// nearest other row nn[i] and the squared centroid distance nn_d2[i]
/// to it. Each pair is evaluated once, as RowSquaredDistance(row a,
/// row b) with a < b; exact-distance ties resolve to the smaller
/// neighbour index. Requires at least two rows; both outputs hold
/// table.rows() entries.
void ClosestCentroidNeighbors(const ClusterTable& table, Backend backend,
                              std::uint32_t* nn, double* nn_d2);

/// Squared centroid distance from row `i` to every row: out[j] is the
/// value ClosestCentroidNeighbors computes for the pair (min(i, j),
/// max(i, j)), bit for bit; out[i] is +infinity. `out` must hold
/// table.rows() doubles.
void RowPairDistances(const ClusterTable& table, Backend backend,
                      std::size_t i, double* out);

/// The closest pair among `rows` per-row neighbour entries (as filled by
/// ClosestCentroidNeighbors): the minimum distance, with exact ties
/// broken lexicographically on (min(a, b), max(a, b)). Writes a < b and
/// the pair's squared distance.
void ClosestPairFromNeighbors(const std::uint32_t* nn, const double* nn_d2,
                              std::size_t rows, std::size_t* out_a,
                              std::size_t* out_b, double* out_d2);

/// Search for the pair of rows with minimal squared centroid distance
/// (the maintenance-merge candidate): ClosestCentroidNeighbors followed
/// by ClosestPairFromNeighbors. Requires at least two rows; writes the
/// winning indices (a < b; exact-distance ties resolve to the
/// lexicographically smallest (a, b)) and their squared distance.
/// core::UMicro gets the same pair from kernels::ClosestPairCache,
/// which does not rescan unchanged rows; this is its test reference.
void ClosestCentroidPair(const ClusterTable& table, Backend backend,
                         std::size_t* out_a, std::size_t* out_b,
                         double* out_d2);

/// Index of the strictly greatest value (first index wins ties) --
/// matches the `>`-comparison scan of the pre-kernel similarity loop.
std::size_t ArgMax(const double* values, std::size_t n);

/// Index of the strictly smallest value (first index wins ties).
std::size_t ArgMin(const double* values, std::size_t n);

}  // namespace umicro::kernels

#endif  // UMICRO_KERNELS_KERNELS_H_
