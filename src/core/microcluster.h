// Micro-clusters outside UMicro's SoA table. LabeledFrame is the one form
// of every cluster set past the table (shard and merged views, aggregator
// leaf states, checkpoint state): snapshot records plus label histograms.
// MicroCluster is one cluster as a value, built by UMicro::clusters().

#ifndef UMICRO_CORE_MICROCLUSTER_H_
#define UMICRO_CORE_MICROCLUSTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cluster_feature.h"
#include "core/snapshot.h"
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

/// A micro-cluster set in record form: one flat frame plus one
/// evaluation-only label histogram per record (`labels[i]` belongs to
/// `frame` record i, so the two always have the same length).
struct LabeledFrame {
  Snapshot frame;
  std::vector<stream::LabelHistogram> labels;

  std::size_t size() const { return frame.size(); }
  bool empty() const { return frame.empty(); }
};

}  // namespace umicro::core

#endif  // UMICRO_CORE_MICROCLUSTER_H_
