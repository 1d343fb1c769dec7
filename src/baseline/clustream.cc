#include "baseline/clustream.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/math_utils.h"

namespace umicro::baseline {

std::vector<double> CluStreamCluster::Centroid() const {
  UMICRO_CHECK(count > 0.0);
  std::vector<double> centroid(cf1.size());
  for (std::size_t j = 0; j < cf1.size(); ++j) centroid[j] = cf1[j] / count;
  return centroid;
}

double CluStreamCluster::RmsDeviation() const {
  UMICRO_CHECK(count > 0.0);
  double sum = 0.0;
  for (std::size_t j = 0; j < cf1.size(); ++j) {
    const double mean = cf1[j] / count;
    sum += std::max(0.0, cf2[j] / count - mean * mean);
  }
  return std::sqrt(sum);
}

double CluStreamCluster::TimeStddev() const {
  UMICRO_CHECK(count > 0.0);
  const double mean = cf1_time / count;
  return std::sqrt(std::max(0.0, cf2_time / count - mean * mean));
}

CluStream::CluStream(std::size_t dimensions, CluStreamOptions options)
    : dimensions_(dimensions), options_(options) {
  UMICRO_CHECK(dimensions > 0);
  UMICRO_CHECK(options_.num_micro_clusters > 1);
  UMICRO_CHECK(options_.boundary_factor > 0.0);
  UMICRO_CHECK(options_.recency_sample_m > 0);
  clusters_.reserve(options_.num_micro_clusters + 1);
}

std::size_t CluStream::FindClosest(
    const stream::UncertainPoint& point) const {
  UMICRO_DCHECK(!clusters_.empty());
  const double* x = point.values.data();
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_index = 0;
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    const CluStreamCluster& cluster = clusters_[i];
    const double inv_n = 1.0 / cluster.count;
    const double* cf1 = cluster.cf1.data();
    double d2 = 0.0;
    for (std::size_t j = 0; j < dimensions_; ++j) {
      const double diff = x[j] - cf1[j] * inv_n;
      d2 += diff * diff;
    }
    if (d2 < best) {
      best = d2;
      best_index = i;
    }
  }
  return best_index;
}

double CluStream::MaximalBoundary(std::size_t index) const {
  const CluStreamCluster& cluster = clusters_[index];
  if (cluster.count >= 2.0) {
    const double rms = cluster.RmsDeviation();
    if (rms > 0.0) return options_.boundary_factor * rms;
  }
  // Singleton (or zero-variance) cluster: half the distance to the
  // closest other micro-cluster's centroid (half keeps the boundary
  // inside this cluster's Voronoi cell). With no other cluster the
  // boundary is 0, so a lone singleton absorbs only exact duplicates.
  if (clusters_.size() <= 1) return 0.0;
  double nearest = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    if (i == index) continue;
    double d2 = 0.0;
    for (std::size_t j = 0; j < dimensions_; ++j) {
      const double diff =
          clusters_[index].cf1[j] / clusters_[index].count -
          clusters_[i].cf1[j] / clusters_[i].count;
      d2 += diff * diff;
    }
    nearest = std::min(nearest, std::sqrt(d2));
  }
  return 0.5 * nearest;
}

double CluStream::RelevanceStamp(std::size_t index) const {
  const CluStreamCluster& cluster = clusters_[index];
  const double n = cluster.count;
  const double m = static_cast<double>(options_.recency_sample_m);
  if (n < 2.0 * m) return cluster.MeanTime();
  // Approximate the average timestamp of the last m points: under the
  // normal model it sits at the (1 - m/(2n)) percentile of the cluster's
  // timestamp distribution.
  const double p = 1.0 - m / (2.0 * n);
  return cluster.MeanTime() +
         cluster.TimeStddev() * util::InverseNormalCdf(p);
}

void CluStream::RetireOneCluster(double now) {
  // Prefer deleting the cluster with the oldest relevance stamp if it has
  // fallen behind the recency threshold.
  std::size_t stalest = 0;
  double stalest_stamp = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    const double stamp = RelevanceStamp(i);
    if (stamp < stalest_stamp) {
      stalest_stamp = stamp;
      stalest = i;
    }
  }
  if (stalest_stamp < now - options_.recency_threshold_delta) {
    clusters_.erase(clusters_.begin() + static_cast<std::ptrdiff_t>(stalest));
    ++clusters_deleted_;
    return;
  }

  // Otherwise merge the two closest micro-clusters. Centroids are
  // materialized once so the pair search is pure multiply-adds.
  const std::size_t q = clusters_.size();
  centroid_scratch_.resize(q * dimensions_);
  for (std::size_t i = 0; i < q; ++i) {
    const double inv_n = 1.0 / clusters_[i].count;
    const double* cf1 = clusters_[i].cf1.data();
    double* row = &centroid_scratch_[i * dimensions_];
    for (std::size_t j = 0; j < dimensions_; ++j) row[j] = cf1[j] * inv_n;
  }
  std::size_t best_a = 0;
  std::size_t best_b = 1;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a + 1 < q; ++a) {
    const double* row_a = &centroid_scratch_[a * dimensions_];
    for (std::size_t b = a + 1; b < q; ++b) {
      const double* row_b = &centroid_scratch_[b * dimensions_];
      double d2 = 0.0;
      for (std::size_t j = 0; j < dimensions_; ++j) {
        const double diff = row_a[j] - row_b[j];
        d2 += diff * diff;
      }
      if (d2 < best_d2) {
        best_d2 = d2;
        best_a = a;
        best_b = b;
      }
    }
  }
  CluStreamCluster& into = clusters_[best_a];
  CluStreamCluster& from = clusters_[best_b];
  for (std::size_t j = 0; j < dimensions_; ++j) {
    into.cf1[j] += from.cf1[j];
    into.cf2[j] += from.cf2[j];
  }
  into.cf1_time += from.cf1_time;
  into.cf2_time += from.cf2_time;
  into.count += from.count;
  into.creation_time = std::min(into.creation_time, from.creation_time);
  into.last_update_time = std::max(into.last_update_time,
                                   from.last_update_time);
  into.ids.insert(into.ids.end(), from.ids.begin(), from.ids.end());
  for (const auto& [label, weight] : from.labels) {
    into.labels[label] += weight;
  }
  clusters_.erase(clusters_.begin() + static_cast<std::ptrdiff_t>(best_b));
  ++clusters_merged_;
}

void CluStream::Process(const stream::UncertainPoint& point) {
  UMICRO_CHECK_MSG(point.dimensions() == dimensions_,
                   "point has %zu dimensions, algorithm expects %zu",
                   point.dimensions(), dimensions_);
  ++points_processed_;

  if (!clusters_.empty()) {
    const std::size_t closest = FindClosest(point);
    CluStreamCluster& cluster = clusters_[closest];
    double d2 = 0.0;
    for (std::size_t j = 0; j < dimensions_; ++j) {
      const double diff = point.values[j] - cluster.cf1[j] / cluster.count;
      d2 += diff * diff;
    }
    if (std::sqrt(d2) <= MaximalBoundary(closest)) {
      for (std::size_t j = 0; j < dimensions_; ++j) {
        cluster.cf1[j] += point.values[j];
        cluster.cf2[j] += point.values[j] * point.values[j];
      }
      cluster.cf1_time += point.timestamp;
      cluster.cf2_time += point.timestamp * point.timestamp;
      cluster.count += 1.0;
      cluster.last_update_time = point.timestamp;
      if (point.label != stream::kUnlabeled) {
        cluster.labels[point.label] += 1.0;
      }
      return;
    }
  }

  // Create a new singleton micro-cluster.
  CluStreamCluster fresh;
  fresh.ids.push_back(next_cluster_id_++);
  fresh.creation_time = point.timestamp;
  fresh.cf1.resize(dimensions_);
  fresh.cf2.resize(dimensions_);
  for (std::size_t j = 0; j < dimensions_; ++j) {
    fresh.cf1[j] = point.values[j];
    fresh.cf2[j] = point.values[j] * point.values[j];
  }
  fresh.cf1_time = point.timestamp;
  fresh.cf2_time = point.timestamp * point.timestamp;
  fresh.count = 1.0;
  fresh.last_update_time = point.timestamp;
  if (point.label != stream::kUnlabeled) fresh.labels[point.label] = 1.0;
  clusters_.push_back(std::move(fresh));

  if (clusters_.size() > options_.num_micro_clusters) {
    RetireOneCluster(point.timestamp);
  }
}

core::Snapshot CluStream::TakeSnapshot(double time) const {
  core::Snapshot snapshot(time, dimensions_, clusters_.size());
  // CluStream's points are deterministic: every EF2 row is zero.
  const std::vector<double> no_error(dimensions_, 0.0);
  for (const auto& cluster : clusters_) {
    snapshot.Append(cluster.ids.front(), cluster.creation_time, cluster.count,
                    cluster.last_update_time, cluster.cf1.data(),
                    cluster.cf2.data(), no_error.data());
  }
  return snapshot;
}

std::vector<stream::LabelHistogram> CluStream::ClusterLabelHistograms()
    const {
  std::vector<stream::LabelHistogram> histograms;
  histograms.reserve(clusters_.size());
  for (const auto& cluster : clusters_) histograms.push_back(cluster.labels);
  return histograms;
}

std::vector<std::vector<double>> CluStream::ClusterCentroids() const {
  std::vector<std::vector<double>> centroids;
  centroids.reserve(clusters_.size());
  for (const auto& cluster : clusters_) centroids.push_back(cluster.Centroid());
  return centroids;
}

}  // namespace umicro::baseline
