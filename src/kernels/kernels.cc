#include "kernels/kernels.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define UMICRO_KERNELS_X64 1
#else
#define UMICRO_KERNELS_X64 0
#endif

namespace umicro::kernels {

namespace {

// ---- Row reductions, scalar tier ------------------------------------
// Exact left-to-right accumulation: the semantics reference, and the
// same numbers the pre-kernel loops in core::UMicro produced.

double VotesRowScalar(const double* x, const double* base,
                      const double* inv_scaled, const double* centroid,
                      const double* ef2n2, std::size_t stride) {
  double s = 0.0;
  if (ef2n2 != nullptr) {
    for (std::size_t j = 0; j < stride; ++j) {
      const double diff = x[j] - centroid[j];
      const double dist2 = diff * diff + ef2n2[j];
      s += std::max(0.0, base[j] - dist2 * inv_scaled[j]);
    }
  } else {
    for (std::size_t j = 0; j < stride; ++j) {
      const double diff = x[j] - centroid[j];
      s += std::max(0.0, base[j] - diff * diff * inv_scaled[j]);
    }
  }
  return s;
}

double BoxDist2RowScalar(const double* x, const double* lo, const double* hi,
                         std::size_t stride) {
  double d2 = 0.0;
  for (std::size_t j = 0; j < stride; ++j) {
    double e = 0.0;
    if (x[j] < lo[j]) {
      e = lo[j] - x[j];
    } else if (x[j] > hi[j]) {
      e = x[j] - hi[j];
    }
    d2 += e * e;
  }
  return d2;
}

double Dist2RowScalar(const double* a, const double* b, std::size_t stride) {
  double d2 = 0.0;
  for (std::size_t j = 0; j < stride; ++j) {
    const double diff = a[j] - b[j];
    d2 += diff * diff;
  }
  return d2;
}

#if UMICRO_KERNELS_X64

// ---- Row reductions, SSE2 tier (2 doubles/lane) ---------------------

__attribute__((target("sse2"))) double HorizontalSum(__m128d v) {
  const __m128d hi = _mm_unpackhi_pd(v, v);
  return _mm_cvtsd_f64(_mm_add_sd(v, hi));
}

__attribute__((target("sse2"))) double VotesRowSse2(
    const double* x, const double* base, const double* inv_scaled,
    const double* centroid, const double* ef2n2, std::size_t stride) {
  const __m128d zero = _mm_setzero_pd();
  __m128d acc = zero;
  if (ef2n2 != nullptr) {
    for (std::size_t j = 0; j < stride; j += 2) {
      const __m128d diff =
          _mm_sub_pd(_mm_loadu_pd(x + j), _mm_loadu_pd(centroid + j));
      const __m128d dist2 =
          _mm_add_pd(_mm_mul_pd(diff, diff), _mm_loadu_pd(ef2n2 + j));
      const __m128d vote =
          _mm_sub_pd(_mm_loadu_pd(base + j),
                     _mm_mul_pd(dist2, _mm_loadu_pd(inv_scaled + j)));
      acc = _mm_add_pd(acc, _mm_max_pd(vote, zero));
    }
  } else {
    for (std::size_t j = 0; j < stride; j += 2) {
      const __m128d diff =
          _mm_sub_pd(_mm_loadu_pd(x + j), _mm_loadu_pd(centroid + j));
      const __m128d vote =
          _mm_sub_pd(_mm_loadu_pd(base + j),
                     _mm_mul_pd(_mm_mul_pd(diff, diff),
                                _mm_loadu_pd(inv_scaled + j)));
      acc = _mm_add_pd(acc, _mm_max_pd(vote, zero));
    }
  }
  return HorizontalSum(acc);
}

__attribute__((target("sse2"))) double BoxDist2RowSse2(const double* x,
                                                       const double* lo,
                                                       const double* hi,
                                                       std::size_t stride) {
  const __m128d zero = _mm_setzero_pd();
  __m128d acc = zero;
  for (std::size_t j = 0; j < stride; j += 2) {
    const __m128d xv = _mm_loadu_pd(x + j);
    const __m128d below = _mm_sub_pd(_mm_loadu_pd(lo + j), xv);
    const __m128d above = _mm_sub_pd(xv, _mm_loadu_pd(hi + j));
    const __m128d e = _mm_max_pd(_mm_max_pd(below, above), zero);
    acc = _mm_add_pd(acc, _mm_mul_pd(e, e));
  }
  return HorizontalSum(acc);
}

__attribute__((target("sse2"))) double Dist2RowSse2(const double* a,
                                                    const double* b,
                                                    std::size_t stride) {
  __m128d acc = _mm_setzero_pd();
  for (std::size_t j = 0; j < stride; j += 2) {
    const __m128d diff = _mm_sub_pd(_mm_loadu_pd(a + j), _mm_loadu_pd(b + j));
    acc = _mm_add_pd(acc, _mm_mul_pd(diff, diff));
  }
  return HorizontalSum(acc);
}

// ---- Row reductions, AVX2+FMA tier (4 doubles/lane) -----------------

__attribute__((target("avx2,fma"))) double HorizontalSum256(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swapped));
}

__attribute__((target("avx2,fma"))) double VotesRowAvx2(
    const double* x, const double* base, const double* inv_scaled,
    const double* centroid, const double* ef2n2, std::size_t stride) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = zero;
  if (ef2n2 != nullptr) {
    for (std::size_t j = 0; j < stride; j += 4) {
      const __m256d diff =
          _mm256_sub_pd(_mm256_loadu_pd(x + j), _mm256_loadu_pd(centroid + j));
      const __m256d dist2 =
          _mm256_fmadd_pd(diff, diff, _mm256_loadu_pd(ef2n2 + j));
      const __m256d vote = _mm256_fnmadd_pd(
          dist2, _mm256_loadu_pd(inv_scaled + j), _mm256_loadu_pd(base + j));
      acc = _mm256_add_pd(acc, _mm256_max_pd(vote, zero));
    }
  } else {
    for (std::size_t j = 0; j < stride; j += 4) {
      const __m256d diff =
          _mm256_sub_pd(_mm256_loadu_pd(x + j), _mm256_loadu_pd(centroid + j));
      const __m256d dist2 = _mm256_mul_pd(diff, diff);
      const __m256d vote = _mm256_fnmadd_pd(
          dist2, _mm256_loadu_pd(inv_scaled + j), _mm256_loadu_pd(base + j));
      acc = _mm256_add_pd(acc, _mm256_max_pd(vote, zero));
    }
  }
  return HorizontalSum256(acc);
}

__attribute__((target("avx2,fma"))) double BoxDist2RowAvx2(
    const double* x, const double* lo, const double* hi, std::size_t stride) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = zero;
  for (std::size_t j = 0; j < stride; j += 4) {
    const __m256d xv = _mm256_loadu_pd(x + j);
    const __m256d below = _mm256_sub_pd(_mm256_loadu_pd(lo + j), xv);
    const __m256d above = _mm256_sub_pd(xv, _mm256_loadu_pd(hi + j));
    const __m256d e = _mm256_max_pd(_mm256_max_pd(below, above), zero);
    acc = _mm256_fmadd_pd(e, e, acc);
  }
  return HorizontalSum256(acc);
}

__attribute__((target("avx2,fma"))) double Dist2RowAvx2(const double* a,
                                                        const double* b,
                                                        std::size_t stride) {
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t j = 0; j < stride; j += 4) {
    const __m256d diff =
        _mm256_sub_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j));
    acc = _mm256_fmadd_pd(diff, diff, acc);
  }
  return HorizontalSum256(acc);
}

#endif  // UMICRO_KERNELS_X64

double VotesRow(Backend backend, const double* x, const double* base,
                const double* inv_scaled, const double* centroid,
                const double* ef2n2, std::size_t stride) {
  switch (backend) {
#if UMICRO_KERNELS_X64
    case Backend::kAvx2:
      return VotesRowAvx2(x, base, inv_scaled, centroid, ef2n2, stride);
    case Backend::kSse2:
      return VotesRowSse2(x, base, inv_scaled, centroid, ef2n2, stride);
#endif
    default:
      return VotesRowScalar(x, base, inv_scaled, centroid, ef2n2, stride);
  }
}

double Dist2Row(Backend backend, const double* a, const double* b,
                std::size_t stride) {
  switch (backend) {
#if UMICRO_KERNELS_X64
    case Backend::kAvx2:
      return Dist2RowAvx2(a, b, stride);
    case Backend::kSse2:
      return Dist2RowSse2(a, b, stride);
#endif
    default:
      return Dist2RowScalar(a, b, stride);
  }
}

// Blocks the q x q upper triangle so each pass keeps one tile of
// centroid rows hot in L1/L2; 16 rows of up-to-64 padded dims are 8 KiB
// per tile, two tiles per pass. Every row meets its candidates in
// ascending index order (first as the b of pairs (a', b) in ascending
// a', then as the a of pairs (a, b') in ascending b'), so a strict <
// keeps the smallest index among equal distances. The tier's row
// reduction is a template argument so the dispatch stays out of the
// O(q^2) loop.
template <double (*Dist2)(const double*, const double*, std::size_t)>
void BlockedNeighbors(const ClusterTable& table, std::uint32_t* nn,
                      double* nn_d2) {
  const std::size_t q = table.rows();
  const std::size_t stride = table.stride();
  const double* centroids = table.centroid_data();
  constexpr std::size_t kBlock = 16;
  for (std::size_t a0 = 0; a0 < q; a0 += kBlock) {
    const std::size_t a1 = std::min(a0 + kBlock, q);
    for (std::size_t b0 = a0; b0 < q; b0 += kBlock) {
      const std::size_t b1 = std::min(b0 + kBlock, q);
      for (std::size_t a = a0; a < a1; ++a) {
        const double* row_a = centroids + a * stride;
        double best_d2 = nn_d2[a];
        std::uint32_t best = nn[a];
        for (std::size_t b = std::max(b0, a + 1); b < b1; ++b) {
          const double d2 = Dist2(row_a, centroids + b * stride, stride);
          if (d2 < best_d2) {
            best_d2 = d2;
            best = static_cast<std::uint32_t>(b);
          }
          if (d2 < nn_d2[b]) {
            nn_d2[b] = d2;
            nn[b] = static_cast<std::uint32_t>(a);
          }
        }
        nn_d2[a] = best_d2;
        nn[a] = best;
      }
    }
  }
}

template <double (*Dist2)(const double*, const double*, std::size_t)>
void RowToRows(const ClusterTable& table, std::size_t i, double* out) {
  const std::size_t q = table.rows();
  const std::size_t stride = table.stride();
  const double* row_i = table.centroid_row(i);
  for (std::size_t j = 0; j < i; ++j) {
    out[j] = Dist2(table.centroid_row(j), row_i, stride);
  }
  out[i] = std::numeric_limits<double>::infinity();
  for (std::size_t j = i + 1; j < q; ++j) {
    out[j] = Dist2(row_i, table.centroid_row(j), stride);
  }
}

}  // namespace

void PointContext::Prepare(const ClusterTable& table, const double* values,
                           const double* errors,
                           const double* inv_scaled_variances) {
  dims = table.dims();
  stride = table.stride();
  x.assign(stride, 0.0);
  base.assign(stride, 0.0);
  inv_scaled.assign(stride, 0.0);
  psi2_sum = 0.0;
  for (std::size_t j = 0; j < dims; ++j) {
    x[j] = values[j];
    const double psi = errors == nullptr ? 0.0 : errors[j];
    psi2_sum += psi * psi;
    if (inv_scaled_variances != nullptr) {
      const double inv = inv_scaled_variances[j];
      inv_scaled[j] = inv;
      const double mask = inv > 0.0 ? 1.0 : 0.0;
      base[j] = mask - psi * psi * inv;
    }
  }
}

void BatchDimensionVotes(const ClusterTable& table, const PointContext& ctx,
                         bool include_cluster_error, Backend backend,
                         double* out) {
  UMICRO_DCHECK(ctx.stride == table.stride());
  const std::size_t rows = table.rows();
  for (std::size_t i = 0; i < rows; ++i) {
    out[i] = VotesRow(backend, ctx.x.data(), ctx.base.data(),
                      ctx.inv_scaled.data(), table.centroid_row(i),
                      include_cluster_error ? table.ef2n2_row(i) : nullptr,
                      ctx.stride);
  }
}

void BatchSquaredDistances(const ClusterTable& table, const PointContext& ctx,
                           DistanceKind kind, Backend backend, double* out) {
  UMICRO_DCHECK(ctx.stride == table.stride());
  const std::size_t rows = table.rows();
  for (std::size_t i = 0; i < rows; ++i) {
    const double geometric =
        Dist2Row(backend, ctx.x.data(), table.centroid_row(i), ctx.stride);
    out[i] = kind == DistanceKind::kExpected
                 ? std::max(0.0, geometric + table.ef2n2_sum(i) + ctx.psi2_sum)
                 : geometric;
  }
}

void GatherSquaredDistances(const ClusterTable& table, const PointContext& ctx,
                            DistanceKind kind, Backend backend,
                            const std::uint32_t* rows, std::size_t count,
                            double* out) {
  UMICRO_DCHECK(ctx.stride == table.stride());
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = rows[k];
    UMICRO_DCHECK(i < table.rows());
    const double geometric =
        Dist2Row(backend, ctx.x.data(), table.centroid_row(i), ctx.stride);
    out[k] = kind == DistanceKind::kExpected
                 ? std::max(0.0, geometric + table.ef2n2_sum(i) + ctx.psi2_sum)
                 : geometric;
  }
}

double RowSquaredDistance(Backend backend, const double* a, const double* b,
                          std::size_t stride) {
  return Dist2Row(backend, a, b, stride);
}

double BoxSquaredDistance(Backend backend, const double* x, const double* lo,
                          const double* hi, std::size_t stride) {
  switch (backend) {
#if UMICRO_KERNELS_X64
    case Backend::kAvx2:
      return BoxDist2RowAvx2(x, lo, hi, stride);
    case Backend::kSse2:
      return BoxDist2RowSse2(x, lo, hi, stride);
#endif
    default:
      return BoxDist2RowScalar(x, lo, hi, stride);
  }
}

void ClosestCentroidNeighbors(const ClusterTable& table, Backend backend,
                              std::uint32_t* nn, double* nn_d2) {
  const std::size_t q = table.rows();
  UMICRO_CHECK(q >= 2);
  std::fill(nn, nn + q, static_cast<std::uint32_t>(q));
  std::fill(nn_d2, nn_d2 + q, std::numeric_limits<double>::infinity());
  switch (backend) {
#if UMICRO_KERNELS_X64
    case Backend::kAvx2:
      return BlockedNeighbors<Dist2RowAvx2>(table, nn, nn_d2);
    case Backend::kSse2:
      return BlockedNeighbors<Dist2RowSse2>(table, nn, nn_d2);
#endif
    default:
      return BlockedNeighbors<Dist2RowScalar>(table, nn, nn_d2);
  }
}

void RowPairDistances(const ClusterTable& table, Backend backend,
                      std::size_t i, double* out) {
  UMICRO_DCHECK(i < table.rows());
  switch (backend) {
#if UMICRO_KERNELS_X64
    case Backend::kAvx2:
      return RowToRows<Dist2RowAvx2>(table, i, out);
    case Backend::kSse2:
      return RowToRows<Dist2RowSse2>(table, i, out);
#endif
    default:
      return RowToRows<Dist2RowScalar>(table, i, out);
  }
}

void ClosestPairFromNeighbors(const std::uint32_t* nn, const double* nn_d2,
                              std::size_t rows, std::size_t* out_a,
                              std::size_t* out_b, double* out_d2) {
  UMICRO_CHECK(rows >= 2);
  std::size_t best_a = 0;
  std::size_t best_b = 1;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < rows; ++i) {
    const double d2 = nn_d2[i];
    const std::size_t a = std::min<std::size_t>(i, nn[i]);
    const std::size_t b = std::max<std::size_t>(i, nn[i]);
    if (d2 < best_d2 ||
        (d2 == best_d2 && (a < best_a || (a == best_a && b < best_b)))) {
      best_d2 = d2;
      best_a = a;
      best_b = b;
    }
  }
  *out_a = best_a;
  *out_b = best_b;
  *out_d2 = best_d2;
}

void ClosestCentroidPair(const ClusterTable& table, Backend backend,
                         std::size_t* out_a, std::size_t* out_b,
                         double* out_d2) {
  const std::size_t q = table.rows();
  std::vector<std::uint32_t> nn(q);
  std::vector<double> nn_d2(q);
  ClosestCentroidNeighbors(table, backend, nn.data(), nn_d2.data());
  ClosestPairFromNeighbors(nn.data(), nn_d2.data(), q, out_a, out_b, out_d2);
}

std::size_t ArgMax(const double* values, std::size_t n) {
  std::size_t best = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (values[i] > best_value) {
      best_value = values[i];
      best = i;
    }
  }
  return best;
}

std::size_t ArgMin(const double* values, std::size_t n) {
  std::size_t best = 0;
  double best_value = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (values[i] < best_value) {
      best_value = values[i];
      best = i;
    }
  }
  return best;
}

}  // namespace umicro::kernels
