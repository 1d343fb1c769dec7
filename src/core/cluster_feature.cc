#include "core/cluster_feature.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace umicro::core {

std::vector<double> Centroid(const double* cf1, double weight,
                             std::size_t dims) {
  std::vector<double> centroid(dims);
  for (std::size_t j = 0; j < dims; ++j) centroid[j] = cf1[j] / weight;
  return centroid;
}

double UncertainRadiusSquared(const double* cf1, const double* cf2,
                              const double* ef2, double weight,
                              std::size_t dims) {
  const double n = weight;
  double sum = 0.0;
  for (std::size_t j = 0; j < dims; ++j) {
    sum += cf2[j] + ef2[j] * (1.0 + 1.0 / n) - cf1[j] * cf1[j] / n;
  }
  return std::max(0.0, sum / n);
}

double VarianceAt(double cf1, double cf2, double weight) {
  const double mean = cf1 / weight;
  return std::max(0.0, cf2 / weight - mean * mean);
}

ErrorClusterFeature::ErrorClusterFeature(std::size_t dimensions)
    : cf1_(dimensions, 0.0), cf2_(dimensions, 0.0), ef2_(dimensions, 0.0) {
  UMICRO_CHECK(dimensions > 0);
}

ErrorClusterFeature ErrorClusterFeature::FromPoint(
    const stream::UncertainPoint& point, double weight) {
  ErrorClusterFeature ecf(point.dimensions());
  ecf.AddPoint(point, weight);
  return ecf;
}

void ErrorClusterFeature::AddPoint(const stream::UncertainPoint& point,
                                   double weight) {
  UMICRO_CHECK(point.dimensions() == dimensions());
  UMICRO_CHECK(weight > 0.0);
  for (std::size_t j = 0; j < dimensions(); ++j) {
    const double x = point.values[j];
    const double psi = point.ErrorAt(j);
    cf1_[j] += weight * x;
    cf2_[j] += weight * x * x;
    ef2_[j] += weight * psi * psi;
  }
  weight_ += weight;
  last_update_time_ = std::max(last_update_time_, point.timestamp);
}

void ErrorClusterFeature::Merge(const ErrorClusterFeature& other) {
  UMICRO_CHECK(other.dimensions() == dimensions());
  for (std::size_t j = 0; j < dimensions(); ++j) {
    cf1_[j] += other.cf1_[j];
    cf2_[j] += other.cf2_[j];
    ef2_[j] += other.ef2_[j];
  }
  weight_ += other.weight_;
  last_update_time_ = std::max(last_update_time_, other.last_update_time_);
}

void ErrorClusterFeature::Subtract(const ErrorClusterFeature& other) {
  UMICRO_CHECK(other.dimensions() == dimensions());
  weight_ -= other.weight_;
  if (weight_ <= 0.0) {
    // An over-subtracted cluster is empty. Clamping only the weight
    // while leaving cf1 nonzero used to hand Centroid() a near-zero
    // divisor and inject huge coordinates downstream; all statistics
    // are zeroed together so the clamp is self-consistent.
    weight_ = 0.0;
    std::fill(cf1_.begin(), cf1_.end(), 0.0);
    std::fill(cf2_.begin(), cf2_.end(), 0.0);
    std::fill(ef2_.begin(), ef2_.end(), 0.0);
    return;
  }
  for (std::size_t j = 0; j < dimensions(); ++j) {
    cf1_[j] -= other.cf1_[j];
    cf2_[j] = std::max(0.0, cf2_[j] - other.cf2_[j]);
    ef2_[j] = std::max(0.0, ef2_[j] - other.ef2_[j]);
  }
}

void ErrorClusterFeature::Scale(double factor) {
  UMICRO_CHECK(factor >= 0.0);
  for (std::size_t j = 0; j < dimensions(); ++j) {
    cf1_[j] *= factor;
    cf2_[j] *= factor;
    ef2_[j] *= factor;
  }
  weight_ *= factor;
}

std::vector<double> ErrorClusterFeature::Centroid() const {
  UMICRO_CHECK(!empty());
  return core::Centroid(cf1_.data(), weight_, dimensions());
}

double ErrorClusterFeature::CentroidAt(std::size_t j) const {
  UMICRO_DCHECK(!empty());
  UMICRO_DCHECK(j < dimensions());
  return cf1_[j] / weight_;
}

double ErrorClusterFeature::ExpectedCentroidNormSquared() const {
  UMICRO_CHECK(!empty());
  const double n2 = weight_ * weight_;
  double sum = 0.0;
  for (std::size_t j = 0; j < dimensions(); ++j) {
    sum += cf1_[j] * cf1_[j] / n2 + ef2_[j] / n2;
  }
  return sum;
}

double ErrorClusterFeature::UncertainRadiusSquared() const {
  UMICRO_CHECK(!empty());
  return core::UncertainRadiusSquared(cf1_.data(), cf2_.data(), ef2_.data(),
                                      weight_, dimensions());
}

double ErrorClusterFeature::UncertainRadius() const {
  return std::sqrt(UncertainRadiusSquared());
}

double ErrorClusterFeature::VarianceAt(std::size_t j) const {
  UMICRO_CHECK(!empty());
  UMICRO_CHECK(j < dimensions());
  return core::VarianceAt(cf1_[j], cf2_[j], weight_);
}

ErrorClusterFeature ErrorClusterFeature::FromRaw(std::vector<double> cf1,
                                                 std::vector<double> cf2,
                                                 std::vector<double> ef2,
                                                 double weight,
                                                 double last_update_time) {
  UMICRO_CHECK(!cf1.empty());
  UMICRO_CHECK(cf1.size() == cf2.size() && cf2.size() == ef2.size());
  UMICRO_CHECK(weight >= 0.0);
  ErrorClusterFeature ecf;
  ecf.cf1_ = std::move(cf1);
  ecf.cf2_ = std::move(cf2);
  ecf.ef2_ = std::move(ef2);
  ecf.weight_ = weight;
  ecf.last_update_time_ = last_update_time;
  return ecf;
}

}  // namespace umicro::core
