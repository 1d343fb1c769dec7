// CluStream: the deterministic micro-clustering baseline (Aggarwal, Han,
// Wang, Yu -- "A Framework for Clustering Evolving Data Streams",
// VLDB 2003). This is the algorithm the paper compares UMicro against;
// it ignores the error vectors entirely.
//
// Micro-clusters store (CF2x, CF1x, CF2t, CF1t, n): value moments plus
// timestamp moments. Maintenance per arriving point:
//   * assign to the closest centroid if the point falls within the
//     maximal boundary (a factor of the cluster's RMS deviation; for
//     singletons, the distance to the closest other cluster);
//   * otherwise create a new micro-cluster, making room by deleting the
//     least relevant cluster (relevance stamp older than delta) or, if
//     none qualifies, merging the two closest micro-clusters.
// The relevance stamp approximates the average arrival time of the last
// m points under a normal model of the timestamp distribution.

#ifndef UMICRO_BASELINE_CLUSTREAM_H_
#define UMICRO_BASELINE_CLUSTREAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "stream/clusterer.h"
#include "stream/point.h"

namespace umicro::baseline {

/// Tunables of the CluStream baseline.
struct CluStreamOptions {
  /// Number of micro-clusters (paper experiments: 100).
  std::size_t num_micro_clusters = 100;
  /// Maximal-boundary width in RMS deviations (kept equal to UMicro's
  /// t = 3 so the comparison is apples-to-apples).
  double boundary_factor = 3.0;
  /// Recency threshold delta: clusters whose relevance stamp falls more
  /// than delta behind the current time may be deleted.
  double recency_threshold_delta = 5000.0;
  /// The `m` of the relevance stamp: we care about the average arrival
  /// time of a cluster's last m points.
  std::size_t recency_sample_m = 100;
};

/// One deterministic micro-cluster.
struct CluStreamCluster {
  /// Ids of all micro-clusters merged into this one (first is primary).
  std::vector<std::uint64_t> ids;
  double creation_time = 0.0;
  std::vector<double> cf1;   ///< per-dimension sum of values
  std::vector<double> cf2;   ///< per-dimension sum of squared values
  double cf1_time = 0.0;     ///< sum of timestamps
  double cf2_time = 0.0;     ///< sum of squared timestamps
  double count = 0.0;        ///< number of points n
  double last_update_time = 0.0;
  stream::LabelHistogram labels;  ///< evaluation-only

  /// Centroid along dimension j.
  double CentroidAt(std::size_t j) const { return cf1[j] / count; }

  /// Full centroid vector.
  std::vector<double> Centroid() const;

  /// RMS deviation of the member points about the centroid.
  double RmsDeviation() const;

  /// Mean of the member timestamps.
  double MeanTime() const { return cf1_time / count; }

  /// Stddev of the member timestamps.
  double TimeStddev() const;
};

/// The CluStream algorithm.
class CluStream : public stream::StreamClusterer {
 public:
  CluStream(std::size_t dimensions, CluStreamOptions options);

  // StreamClusterer interface.
  void Process(const stream::UncertainPoint& point) override;
  std::string name() const override { return "CluStream"; }
  std::size_t points_processed() const override { return points_processed_; }
  std::vector<stream::LabelHistogram> ClusterLabelHistograms() const override;
  std::vector<std::vector<double>> ClusterCentroids() const override;

  /// Live micro-clusters (inspection hook).
  const std::vector<CluStreamCluster>& clusters() const { return clusters_; }

  /// Relevance stamp of cluster `index` (approximate mean arrival time of
  /// its last m points); exposed for tests.
  double RelevanceStamp(std::size_t index) const;

  /// Materializes the current micro-cluster set as a snapshot (EF2 = 0:
  /// CluStream carries no error statistics). A merged cluster appears
  /// under its primary (first) id, as in the CluStream framework's own
  /// pyramidal storage.
  core::Snapshot TakeSnapshot(double time) const;

  /// Maintenance counters (diagnostics).
  std::size_t clusters_deleted() const { return clusters_deleted_; }
  std::size_t clusters_merged() const { return clusters_merged_; }

 private:
  std::size_t FindClosest(const stream::UncertainPoint& point) const;
  double MaximalBoundary(std::size_t index) const;
  /// Makes room for a new cluster: delete-stale or merge-closest.
  void RetireOneCluster(double now);

  const std::size_t dimensions_;
  const CluStreamOptions options_;
  std::vector<CluStreamCluster> clusters_;
  /// Scratch buffer for the closest-pair merge search.
  std::vector<double> centroid_scratch_;
  std::size_t points_processed_ = 0;
  std::uint64_t next_cluster_id_ = 0;
  std::size_t clusters_deleted_ = 0;
  std::size_t clusters_merged_ = 0;
};

}  // namespace umicro::baseline

#endif  // UMICRO_BASELINE_CLUSTREAM_H_
