#include "kernels/pair_similarity.h"

#include <algorithm>

#include "util/check.h"

#if UMICRO_KERNELS_X64
#include <immintrin.h>
#endif

namespace umicro::kernels {

namespace {

/// Rows per vector block: two 4-double AVX2 vectors, so each block runs
/// four independent accumulator chains.
constexpr std::size_t kBlock = 8;

// Scalar reference (the primary template; see Dispatch in dispatch.h):
// for each dimension, every later row in turn. Each pair's sums run over
// j in ascending order, as in parallel::ClusterSimilarity.
template <Backend>
void PairRow(const PairTermTable& terms, const double* inv_scaled,
             std::size_t a, double* vote, double* d2) {
  const std::size_t begin = a + 1;
  const std::size_t end = terms.rows();
  std::fill(vote + begin, vote + end, 0.0);
  std::fill(d2 + begin, d2 + end, 0.0);
  for (std::size_t j = 0; j < terms.dims(); ++j) {
    const double* c = terms.centroid_column(j);
    const double* e = terms.error_column(j);
    const double ca = c[a];
    const double ea = e[a];
    const double inv = inv_scaled[j];
    for (std::size_t b = begin; b < end; ++b) {
      const double diff = ca - c[b];
      const double geometric = diff * diff;
      d2[b] += geometric;
      if (inv > 0.0) {
        const double expected = geometric + ea + e[b];
        vote[b] += std::max(0.0, 1.0 - expected * inv);
      }
    }
  }
}

#if UMICRO_KERNELS_X64

// AVX2 tier: lanes are 8 consecutive rows b, the sums over j stay in
// registers. Compiled without "fma" so no multiply-add can be fused.
template <>
__attribute__((target("avx2"))) void PairRow<Backend::kAvx2>(
    const PairTermTable& terms, const double* inv_scaled, std::size_t a,
    double* vote, double* d2) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  for (std::size_t b = (a + 1) / kBlock * kBlock; b < terms.rows();
       b += kBlock) {
    __m256d s0 = zero, s1 = zero, v0 = zero, v1 = zero;
    for (std::size_t j = 0; j < terms.dims(); ++j) {
      const double* c = terms.centroid_column(j);
      const double* e = terms.error_column(j);
      const __m256d ca = _mm256_set1_pd(c[a]);
      const __m256d d0 = _mm256_sub_pd(ca, _mm256_loadu_pd(c + b));
      const __m256d d1 = _mm256_sub_pd(ca, _mm256_loadu_pd(c + b + 4));
      const __m256d g0 = _mm256_mul_pd(d0, d0);
      const __m256d g1 = _mm256_mul_pd(d1, d1);
      s0 = _mm256_add_pd(s0, g0);
      s1 = _mm256_add_pd(s1, g1);
      if (inv_scaled[j] > 0.0) {
        const __m256d ea = _mm256_set1_pd(e[a]);
        const __m256d inv = _mm256_set1_pd(inv_scaled[j]);
        const __m256d x0 = _mm256_add_pd(_mm256_add_pd(g0, ea),
                                         _mm256_loadu_pd(e + b));
        const __m256d x1 = _mm256_add_pd(_mm256_add_pd(g1, ea),
                                         _mm256_loadu_pd(e + b + 4));
        // max(vote, 0) returns the 0 operand for NaN, as std::max(0.0,
        // vote) does in the scalar tier.
        v0 = _mm256_add_pd(
            v0, _mm256_max_pd(_mm256_sub_pd(one, _mm256_mul_pd(x0, inv)),
                              zero));
        v1 = _mm256_add_pd(
            v1, _mm256_max_pd(_mm256_sub_pd(one, _mm256_mul_pd(x1, inv)),
                              zero));
      }
    }
    _mm256_storeu_pd(d2 + b, s0);
    _mm256_storeu_pd(d2 + b + 4, s1);
    _mm256_storeu_pd(vote + b, v0);
    _mm256_storeu_pd(vote + b + 4, v1);
  }
}

#endif  // UMICRO_KERNELS_X64

}  // namespace

PairTermTable::PairTermTable(std::size_t dims, std::size_t rows)
    : dims_(dims),
      rows_(rows),
      stride_((rows + kBlock - 1) / kBlock * kBlock),
      centroid_(dims * stride_, 0.0),
      error_(dims * stride_, 0.0) {}

void PairTermTable::SetRow(std::size_t i, const double* cf1,
                           const double* ef2, double weight) {
  UMICRO_DCHECK(i < rows_);
  UMICRO_DCHECK(weight > 0.0);
  // The same products parallel::ClusterSimilarity forms per pair.
  const double inv_n = 1.0 / weight;
  const double inv_n2 = inv_n * inv_n;
  for (std::size_t j = 0; j < dims_; ++j) {
    centroid_[j * stride_ + i] = cf1[j] * inv_n;
    error_[j * stride_ + i] = ef2[j] * inv_n2;
  }
}

void PairSimilarityRow(const PairTermTable& terms, const double* inv_scaled,
                       std::size_t a, Backend backend, double* vote,
                       double* d2) {
  UMICRO_DCHECK(a < terms.rows());
  Dispatch(backend, [&](auto tier) {
    PairRow<tier>(terms, inv_scaled, a, vote, d2);
  });
}

}  // namespace umicro::kernels
