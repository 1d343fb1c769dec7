#include "core/evolution.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/math_utils.h"

namespace umicro::core {

namespace {

/// Macro-clusters a window and reduces it to (centroid, mass, rms).
struct MacroSummary {
  std::vector<std::vector<double>> centroids;
  std::vector<double> mass;
  std::vector<double> rms;
};

MacroSummary Summarize(const std::vector<MicroClusterState>& window,
                       const MacroClusteringOptions& options) {
  const MacroClustering clustering = ClusterMicroClusters(window, options);
  MacroSummary summary;
  const std::size_t k = clustering.centroids.size();
  summary.centroids = clustering.centroids;
  summary.mass.assign(k, 0.0);
  // Mass-weighted mean squared micro-centroid distance as the macro
  // cluster's RMS scale.
  std::vector<double> msd(k, 0.0);
  for (std::size_t i = 0; i < window.size(); ++i) {
    const auto c = static_cast<std::size_t>(clustering.assignment[i]);
    const ErrorClusterFeature& ecf = window[i].ecf;
    const double w = ecf.weight();
    summary.mass[c] += w;
    // Squared distance of the micro centroid cf1 / w to the macro
    // centroid, read off the cf1 row without materializing the centroid.
    const double* cf1 = ecf.cf1().data();
    const std::vector<double>& centre = clustering.centroids[c];
    UMICRO_CHECK(centre.size() == ecf.dimensions());
    double d2 = 0.0;
    for (std::size_t j = 0; j < centre.size(); ++j) {
      const double diff = cf1[j] / w - centre[j];
      d2 += diff * diff;
    }
    msd[c] += w * d2;
  }
  summary.rms.resize(k);
  for (std::size_t c = 0; c < k; ++c) {
    summary.rms[c] =
        summary.mass[c] > 0.0 ? std::sqrt(msd[c] / summary.mass[c]) : 0.0;
  }
  return summary;
}

}  // namespace

EvolutionReport CompareWindows(
    const std::vector<MicroClusterState>& earlier,
    const std::vector<MicroClusterState>& later,
    const EvolutionOptions& options) {
  UMICRO_CHECK(!earlier.empty());
  UMICRO_CHECK(!later.empty());
  UMICRO_CHECK(options.drift_radius_factor >= 0.0);
  UMICRO_CHECK(options.match_radius_factor >= options.drift_radius_factor);

  const MacroSummary a = Summarize(earlier, options.macro);
  const MacroSummary b = Summarize(later, options.macro);

  // Greedy globally-closest matching between the two centroid sets.
  struct Pair {
    double distance;
    std::size_t ai;
    std::size_t bi;
  };
  std::vector<Pair> pairs;
  for (std::size_t i = 0; i < a.centroids.size(); ++i) {
    for (std::size_t j = 0; j < b.centroids.size(); ++j) {
      pairs.push_back({util::EuclideanDistance(a.centroids[i],
                                               b.centroids[j]),
                       i, j});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& x, const Pair& y) {
              return x.distance < y.distance;
            });

  std::vector<bool> a_used(a.centroids.size(), false);
  std::vector<bool> b_used(b.centroids.size(), false);
  EvolutionReport report;
  for (const Pair& pair : pairs) {
    if (a_used[pair.ai] || b_used[pair.bi]) continue;
    // Scale threshold by the earlier cluster's RMS radius (floored to
    // stay meaningful for razor-thin clusters).
    const double scale = std::max(a.rms[pair.ai], 1e-12);
    if (pair.distance > options.match_radius_factor * scale) {
      continue;  // too far apart to be the same population
    }
    a_used[pair.ai] = true;
    b_used[pair.bi] = true;
    ClusterEvolution entry;
    entry.fate = pair.distance <= options.drift_radius_factor * scale
                     ? ClusterFate::kStable
                     : ClusterFate::kDrifted;
    entry.earlier_centroid = a.centroids[pair.ai];
    entry.later_centroid = b.centroids[pair.bi];
    entry.earlier_mass = a.mass[pair.ai];
    entry.later_mass = b.mass[pair.bi];
    entry.drift_distance = pair.distance;
    report.clusters.push_back(std::move(entry));
  }

  for (std::size_t i = 0; i < a.centroids.size(); ++i) {
    if (a_used[i]) continue;
    ClusterEvolution entry;
    entry.fate = ClusterFate::kDied;
    entry.earlier_centroid = a.centroids[i];
    entry.earlier_mass = a.mass[i];
    report.clusters.push_back(std::move(entry));
  }
  for (std::size_t j = 0; j < b.centroids.size(); ++j) {
    if (b_used[j]) continue;
    ClusterEvolution entry;
    entry.fate = ClusterFate::kBorn;
    entry.later_centroid = b.centroids[j];
    entry.later_mass = b.mass[j];
    report.clusters.push_back(std::move(entry));
  }
  return report;
}

}  // namespace umicro::core
