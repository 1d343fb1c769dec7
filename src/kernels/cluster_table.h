// Structure-of-arrays store of the live micro-cluster set.
//
// The UMicro hot path evaluates every arriving point against all q
// micro-clusters (expected distance / dimension-counting similarity,
// Lemmas 2.1/2.2). This table keeps the clusters' ECF statistics as q
// contiguous, zero-padded rows so the scan kernels stream through
// memory and vectorize.
//
// Per cluster row i (stride-padded, zeros beyond `dims`):
//   cf1[i][j]       first moments          (state)
//   cf2[i][j]       second moments         (state)
//   ef2[i][j]       squared-error sums     (state)
//   centroid[i][j]  cf1[j] * (1/n)         (derived, scan input)
//   ef2n2[i][j]     ef2[j] / n^2           (derived, scan input)
// plus per-cluster scalars: weight n, 1/n, and sum_j ef2n2[j] (the
// cluster-error constant of the expected distance).
//
// The table is UMicro's state: core::UMicro keeps no other copy of the
// statistics, only per-row metadata (id, times, labels) beside it. The
// fused update entry points below perform the identical IEEE
// multiply-then-add sequence as ErrorClusterFeature, so a row
// materialized as an ECF (checkpoints, snapshots, "ucheckpoint 2") is
// bit for bit what the ECF arithmetic gives. The derived rows are
// refreshed by shared (tier-independent) code so every backend sees the
// same scan inputs; they are scan inputs only -- anything exported
// divides cf1[j] / n instead of reading centroid[i][j].

#ifndef UMICRO_KERNELS_CLUSTER_TABLE_H_
#define UMICRO_KERNELS_CLUSTER_TABLE_H_

#include <cstddef>
#include <new>
#include <vector>

#include "kernels/dispatch.h"

namespace umicro::kernels {

/// Contiguous SoA view of q micro-clusters' ECF statistics.
class ClusterTable {
 public:
  ClusterTable() = default;

  /// Creates an empty table for `dimensions`-dimensional clusters.
  explicit ClusterTable(std::size_t dimensions);

  /// Re-initializes for `dimensions`, dropping all rows.
  void Reset(std::size_t dimensions);

  /// Pre-allocates storage for `rows` clusters.
  void Reserve(std::size_t rows);

  /// Appends a row from raw ECF statistics (arrays of length `dims()`).
  /// `weight` must be positive.
  void PushRow(const double* cf1, const double* cf2, const double* ef2,
               double weight);

  /// Appends a singleton row for one point: cf1 = w*x, cf2 = w*x^2,
  /// ef2 = w*psi^2 (`errors` may be null for deterministic points).
  void PushPointRow(const double* values, const double* errors,
                    double weight);

  /// Overwrites row `i` from raw ECF statistics.
  void SetRow(std::size_t i, const double* cf1, const double* cf2,
              const double* ef2, double weight);

  /// Fused ECF update: folds one weighted point into row `i` (CF1 += w*x,
  /// CF2 += w*x^2, EF2 += w*psi^2, n += w) and refreshes the derived
  /// rows, in one pass. Bit-identical to ErrorClusterFeature::AddPoint.
  void AddPoint(std::size_t i, const double* values, const double* errors,
                double weight);

  /// Fused decay: multiplies every additive statistic of every row by
  /// `factor` (> 0) and refreshes the derived rows. Bit-identical to
  /// calling ErrorClusterFeature::Scale on each cluster.
  void ScaleAll(double factor);

  /// Merges row `from` into row `into` (component-wise ECF addition,
  /// Property 2.1) and refreshes `into`'s derived rows. `from` is left
  /// untouched; remove it separately.
  void MergeRows(std::size_t into, std::size_t from);

  /// Removes row `i`, shifting later rows down (order-preserving, so row
  /// indices keep matching the owner's per-row metadata).
  void RemoveRow(std::size_t i);

  /// Number of live rows q.
  std::size_t rows() const { return rows_; }

  /// Dimensionality d.
  std::size_t dims() const { return dims_; }

  /// Padded row length (multiple of 8 doubles; zeros beyond dims()).
  std::size_t stride() const { return stride_; }

  /// Backend used by the update kernels (bit-identical across tiers;
  /// settable for parity tests and benchmarks).
  Backend backend() const { return backend_; }
  void set_backend(Backend backend) { backend_ = backend; }

  // Row accessors (pointers into the contiguous arrays, stride() long).
  const double* cf1_row(std::size_t i) const { return &cf1_[i * stride_]; }
  const double* cf2_row(std::size_t i) const { return &cf2_[i * stride_]; }
  const double* ef2_row(std::size_t i) const { return &ef2_[i * stride_]; }
  const double* centroid_row(std::size_t i) const {
    return &centroid_[i * stride_];
  }
  const double* ef2n2_row(std::size_t i) const {
    return &ef2n2_[i * stride_];
  }

  /// Cluster weight n(C) of row `i`.
  double weight(std::size_t i) const { return weight_[i]; }

  /// Cached 1/n of row `i`.
  double inv_weight(std::size_t i) const { return inv_weight_[i]; }

  /// Cached sum_j EF2_j/n^2 of row `i` (Lemma 2.1's cluster-error term).
  double ef2n2_sum(std::size_t i) const { return ef2n2_sum_[i]; }

  /// The whole centroid array (rows() * stride() doubles) -- input of
  /// the closest-pair kernel.
  const double* centroid_data() const { return centroid_.data(); }

 private:
  /// Recomputes the derived rows (centroid, ef2n2, ef2n2_sum, 1/n) of
  /// row `i`. Shared scalar code so every backend derives identical
  /// scan inputs.
  void RefreshDerived(std::size_t i);

  std::size_t dims_ = 0;
  std::size_t stride_ = 0;
  std::size_t rows_ = 0;
  Backend backend_ = DetectBackend();

  /// Allocator of the arrays below: 64-byte aligned blocks rounded up to
  /// whole cache lines. Rows (a multiple of 8 doubles) then start on a
  /// cache line and no other allocation shares a line with the table,
  /// so kernel throughput does not depend on where the heap happens to
  /// place the arrays.
  template <typename T>
  struct CacheLineAllocator {
    using value_type = T;
    static constexpr std::size_t kLine = 64;

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U>&) {}

    T* allocate(std::size_t n) {
      const std::size_t bytes = (n * sizeof(T) + kLine - 1) / kLine * kLine;
      return static_cast<T*>(::operator new(bytes, std::align_val_t{kLine}));
    }
    void deallocate(T* p, std::size_t) {
      ::operator delete(p, std::align_val_t{kLine});
    }
    friend bool operator==(const CacheLineAllocator&,
                           const CacheLineAllocator&) {
      return true;
    }
  };
  using Doubles = std::vector<double, CacheLineAllocator<double>>;

  Doubles cf1_;
  Doubles cf2_;
  Doubles ef2_;
  Doubles centroid_;
  Doubles ef2n2_;
  Doubles weight_;
  Doubles inv_weight_;
  Doubles ef2n2_sum_;

  // Padded staging buffers for AddPoint (point values and pre-weighted
  // squared errors), reused across calls to avoid allocation.
  std::vector<double> x_stage_;
  std::vector<double> psi2w_stage_;
};

}  // namespace umicro::kernels

#endif  // UMICRO_KERNELS_CLUSTER_TABLE_H_
