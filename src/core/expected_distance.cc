#include "core/expected_distance.h"

#include <algorithm>

#include "util/check.h"

namespace umicro::core {

double ExpectedSquaredDistance(const double* x, const double* psi,
                               const double* cf1, const double* ef2,
                               double n, std::size_t dims) {
  double v = 0.0;
  for (std::size_t j = 0; j < dims; ++j) {
    v += ExpectedSquaredDistanceAt(x[j], psi == nullptr ? 0.0 : psi[j],
                                   cf1[j], ef2[j], n);
  }
  // v is a sum of expectations of squares; clamp tiny negative residue.
  return std::max(0.0, v);
}

double ExpectedSquaredDistance(const stream::UncertainPoint& point,
                               const ErrorClusterFeature& cluster) {
  UMICRO_CHECK(!cluster.empty());
  UMICRO_CHECK(point.dimensions() == cluster.dimensions());
  return ExpectedSquaredDistance(
      point.values.data(),
      point.errors.empty() ? nullptr : point.errors.data(),
      cluster.cf1().data(), cluster.ef2().data(), cluster.weight(),
      cluster.dimensions());
}

double GeometricSquaredDistance(const double* x, const double* cf1,
                                double n, std::size_t dims) {
  double g = 0.0;
  for (std::size_t j = 0; j < dims; ++j) {
    g += GeometricSquaredDistanceAt(x[j], cf1[j], n);
  }
  return g;
}

double GeometricSquaredDistance(const stream::UncertainPoint& point,
                                const ErrorClusterFeature& cluster) {
  UMICRO_DCHECK(!cluster.empty());
  UMICRO_DCHECK(point.dimensions() == cluster.dimensions());
  return GeometricSquaredDistance(point.values.data(), cluster.cf1().data(),
                                  cluster.weight(), cluster.dimensions());
}

double DimensionCountingSimilarity(
    const stream::UncertainPoint& point, const ErrorClusterFeature& cluster,
    const std::vector<double>& global_variances, double thresh,
    DistanceForm form) {
  UMICRO_DCHECK(!cluster.empty());
  UMICRO_DCHECK(point.dimensions() == cluster.dimensions());
  UMICRO_DCHECK(global_variances.size() == cluster.dimensions());
  UMICRO_DCHECK(thresh > 0.0);
  const std::size_t dims = cluster.dimensions();
  const double n = cluster.weight();
  const double inv_n = 1.0 / n;
  const double inv_n2 = inv_n * inv_n;
  const double* cf1 = cluster.cf1().data();
  const double* ef2 = cluster.ef2().data();
  const double* x = point.values.data();
  const double* psi = point.errors.empty() ? nullptr : point.errors.data();
  const bool include_cluster_error = form == DistanceForm::kPaperExpected;

  double similarity = 0.0;
  for (std::size_t j = 0; j < dims; ++j) {
    const double sigma2 = global_variances[j];
    if (sigma2 <= 0.0) continue;
    const double diff = x[j] - cf1[j] * inv_n;
    double dist2 = diff * diff;
    if (psi != nullptr) dist2 += psi[j] * psi[j];
    if (include_cluster_error) dist2 += ef2[j] * inv_n2;
    if (dist2 < 0.0) dist2 = 0.0;
    const double vote = 1.0 - dist2 / (thresh * sigma2);
    if (vote > 0.0) similarity += vote;
  }
  return similarity;
}

}  // namespace umicro::core
