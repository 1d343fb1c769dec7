// Horizon-scoped clustering: combine the pyramidal snapshot store, ECF
// subtractivity, and offline macro-clustering into one query.

#ifndef UMICRO_CORE_HORIZON_H_
#define UMICRO_CORE_HORIZON_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/macro_cluster.h"
#include "core/snapshot.h"
#include "obs/metrics.h"

namespace umicro::core {

/// Result of a horizon query.
struct HorizonClustering {
  /// The horizon actually realized, h' (distance to the chosen stored
  /// snapshot). With at-or-before selection h' >= h; only the fallback
  /// (no snapshot at or before t - h, e.g. a horizon longer than the
  /// retained history) realizes a shorter window.
  double realized_horizon = 0.0;
  /// realized_horizon / requested horizon. 1.0 is an exact hit; values
  /// below 1.0 mean the window silently covers less than asked for.
  double realized_ratio = 0.0;
  /// Micro-cluster statistics covering exactly (t_c - h', t_c].
  std::vector<MicroClusterState> window;
  /// Macro-clustering of the window (k centroids + assignment).
  MacroClustering macro;
};

/// True when `horizon` is a window length a query can answer: a finite
/// positive number (NaN and infinity are not). Every horizon query
/// requires it; the serve layer rejects other requests up front.
bool ValidHorizon(double horizon);

/// Source of the frame a horizon query subtracts: the first retained
/// frame in FrameRank{target, pick} order that materializes, or null
/// (SnapshotStore::Find, or a ranking over a replica's history).
using FrameFinder = std::function<std::shared_ptr<const Snapshot>(
    double target, FramePick pick)>;

/// Answers "cluster the last `horizon` time units into `k` groups", the
/// one horizon query of the engines and the serve layer: takes the frame
/// at or before `current.time - horizon` (falling back to the nearest
/// frame only when none exists at or before that instant -- i.e. the
/// horizon predates retention), subtracts it from `current` with decay
/// correction (SubtractSnapshot), and macro-clusters the residual
/// window. Returns std::nullopt when no usable frame answers, the frame
/// is newer than `current`, or the window is empty. `horizon` must pass
/// ValidHorizon (checked). With a registry attached, counts a fallback
/// as a clamped answer and records "snapshot.subtract_micros",
/// "horizon.macro_micros" and the "horizon.realized_ratio" histogram.
std::optional<HorizonClustering> ClusterOverHorizon(
    const FrameFinder& find, const Snapshot& current, double horizon,
    const MacroClusteringOptions& options, obs::MetricsRegistry* metrics,
    double decay_lambda);

/// The horizon query over `store`, counting "horizon.queries" in
/// `metrics` as well.
std::optional<HorizonClustering> ClusterOverHorizon(
    const SnapshotStore& store, const Snapshot& current, double horizon,
    const MacroClusteringOptions& options,
    obs::MetricsRegistry* metrics = nullptr, double decay_lambda = 0.0);

}  // namespace umicro::core

#endif  // UMICRO_CORE_HORIZON_H_
