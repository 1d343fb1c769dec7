#include "core/horizon.h"

#include <cmath>

#include "obs/scoped_timer.h"
#include "util/check.h"

namespace umicro::core {

namespace {

/// Bucket bounds for the realized-horizon fidelity histogram: ratios
/// cluster tightly around 1.0, so the resolution sits there.
std::vector<double> RealizedRatioBounds() {
  return {0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 4.0};
}

}  // namespace

bool ValidHorizon(double horizon) {
  return std::isfinite(horizon) && horizon > 0.0;
}

std::optional<HorizonClustering> ClusterOverHorizon(
    const FrameFinder& find, const Snapshot& current, double horizon,
    const MacroClusteringOptions& options, obs::MetricsRegistry* metrics,
    double decay_lambda) {
  UMICRO_CHECK(ValidHorizon(horizon));
  // Prefer the frame at or before t_c - h: its window covers at least
  // the requested horizon. The nearest frame could be newer than t_c - h
  // -- arbitrarily close to t_c -- silently collapsing the realized
  // horizon; it remains only as the fallback when the horizon predates
  // everything retained (where "nearest" is the earliest stored frame
  // and the shortfall is unavoidable).
  const double target = current.time - horizon;
  std::shared_ptr<const Snapshot> older = find(target, FramePick::kAtOrBefore);
  if (older == nullptr) {
    // The answer is clamped to the oldest window we can realize.
    // Degraded, and observable -- the caller sees realized_ratio < 1 and
    // the counter flags it even when nobody inspects the ratio.
    older = find(target, FramePick::kNearest);
    if (older != nullptr && metrics != nullptr) {
      metrics->GetCounter("snapshot.horizon_clamped").Increment();
    }
  }
  if (older == nullptr || older->time > current.time) return std::nullopt;

  HorizonClustering result;
  result.realized_horizon = current.time - older->time;
  result.realized_ratio = result.realized_horizon / horizon;
  if (metrics != nullptr) {
    metrics->GetHistogram("horizon.realized_ratio", RealizedRatioBounds())
        .Record(result.realized_ratio);
  }
  {
    const obs::ScopedTimer timer(
        metrics != nullptr
            ? &metrics->GetHistogram("snapshot.subtract_micros")
            : nullptr);
    result.window = SubtractSnapshot(current, *older, decay_lambda);
  }
  if (result.window.empty()) return std::nullopt;
  {
    const obs::ScopedTimer timer(
        metrics != nullptr ? &metrics->GetHistogram("horizon.macro_micros")
                           : nullptr);
    result.macro = ClusterMicroClusters(result.window, options);
  }
  return result;
}

std::optional<HorizonClustering> ClusterOverHorizon(
    const SnapshotStore& store, const Snapshot& current, double horizon,
    const MacroClusteringOptions& options, obs::MetricsRegistry* metrics,
    double decay_lambda) {
  if (metrics != nullptr) metrics->GetCounter("horizon.queries").Increment();
  return ClusterOverHorizon(
      [&store](double target, FramePick pick) {
        return store.Find(target, pick);
      },
      current, horizon, options, metrics, decay_lambda);
}

}  // namespace umicro::core
