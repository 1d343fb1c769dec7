// A micro-cluster as a value: ECF statistics plus the bookkeeping the
// algorithm needs (identity, creation time) and evaluation-only label
// histograms. core::UMicro keeps its live clusters in a SoA table and
// materializes these at its edges (export, inspection, shard merges).

#ifndef UMICRO_CORE_MICROCLUSTER_H_
#define UMICRO_CORE_MICROCLUSTER_H_

#include <cstdint>

#include "core/cluster_feature.h"
#include "stream/clusterer.h"
#include "stream/point.h"

namespace umicro::core {

/// One micro-cluster of the UMicro algorithm.
///
/// `labels` accumulates ground-truth label weights for evaluation (cluster
/// purity); it never influences clustering decisions. Under time decay
/// UMicro scales the histogram together with the ECF so purity reflects
/// the same weighting as the statistics.
struct MicroCluster {
  /// Stable identity, used to match clusters across snapshots for the
  /// subtractive horizon computation.
  std::uint64_t id = 0;
  /// Timestamp of the point that created this cluster.
  double creation_time = 0.0;
  /// The additive error-based statistics.
  ErrorClusterFeature ecf;
  /// Evaluation-only ground-truth histogram.
  stream::LabelHistogram labels;

  MicroCluster() = default;

  /// Creates a singleton cluster from `point`.
  MicroCluster(std::uint64_t cluster_id, const stream::UncertainPoint& point,
               double weight = 1.0)
      : id(cluster_id),
        creation_time(point.timestamp),
        ecf(ErrorClusterFeature::FromPoint(point, weight)) {
    if (point.label != stream::kUnlabeled) labels[point.label] += weight;
  }
};

}  // namespace umicro::core

#endif  // UMICRO_CORE_MICROCLUSTER_H_
