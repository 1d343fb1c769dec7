// Interactive-style horizon analysis with the pyramidal time frame.
//
// Section II-D: snapshots stored pyramidally let an analyst ask, after
// the fact, "what did the stream look like over the last h points?" for
// any horizon h. This example runs UMicro over an evolving stream,
// stores snapshots, then answers three different horizon queries by
// subtractivity and macro-clusters each window. It also persists one
// snapshot to disk and reloads it, as a deployment would.

#include <cmath>
#include <cstdio>

#include "core/evolution.h"
#include "core/macro_cluster.h"
#include "core/snapshot.h"
#include "core/umicro.h"
#include "io/snapshot_io.h"
#include "stream/perturbation.h"
#include "stream/stream_stats.h"
#include "synth/regime_generator.h"

int main() {
  // An evolving stream whose layout changes mid-run: horizon queries over
  // short windows should see only the new regime.
  umicro::synth::RegimeOptions regime;
  regime.regime_length = 30000;
  regime.dimensions = 8;
  regime.num_clusters = 5;
  umicro::synth::RegimeShiftGenerator generator(regime);
  umicro::stream::Dataset dataset = generator.Generate(60000);

  umicro::stream::StreamStats stats(8);
  stats.AddAll(dataset);
  umicro::stream::PerturbationOptions perturb;
  perturb.eta = 0.4;
  umicro::stream::Perturber perturber(stats.Stddevs(), perturb);
  perturber.PerturbDataset(dataset);

  umicro::core::UMicroOptions options;
  options.num_micro_clusters = 60;
  umicro::core::UMicro clusterer(8, options);
  umicro::core::SnapshotStore store(/*alpha=*/2, /*l=*/3);

  const std::size_t kSnapshotEvery = 100;
  std::uint64_t tick = 0;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    clusterer.Process(dataset[i]);
    if ((i + 1) % kSnapshotEvery == 0) {
      store.Insert(++tick, clusterer.TakeSnapshot(dataset[i].timestamp));
    }
  }
  std::printf("stream done: %zu points, %zu snapshots retained "
              "(pyramidal, alpha=2, l=3)\n\n",
              dataset.size(), store.TotalStored());

  const umicro::core::Snapshot current =
      clusterer.TakeSnapshot(dataset[dataset.size() - 1].timestamp);

  for (double horizon : {2000.0, 10000.0, 40000.0}) {
    const auto older = store.FindNearest(current.time - horizon);
    if (!older.has_value()) continue;
    const double realized = current.time - older->time;
    const auto window = umicro::core::SubtractSnapshot(current, *older);

    double mass = 0.0;
    for (const auto& state : window) mass += state.ecf.weight();

    umicro::core::MacroClusteringOptions macro;
    macro.k = 5;
    const auto clustering =
        umicro::core::ClusterMicroClusters(window, macro);

    std::printf("horizon query h=%.0f: matched snapshot at h'=%.0f "
                "(error %.1f%%), window mass %.0f, %zu micro-clusters -> "
                "%zu macro-clusters, weighted SSQ %.3f\n",
                horizon, realized,
                100.0 * std::abs(realized - horizon) / horizon, mass,
                window.size(), clustering.centroids.size(),
                clustering.weighted_ssq);
  }

  // Evolution analysis: compare the first regime's window against the
  // most recent one -- the regime shift should show up as died/born
  // macro-clusters.
  const auto early = store.FindNearest(15000.0);
  const auto mid = store.FindNearest(25000.0);
  const auto recent_start = store.FindNearest(current.time - 10000.0);
  if (early.has_value() && mid.has_value() && recent_start.has_value()) {
    const auto early_window = umicro::core::SubtractSnapshot(*mid, *early);
    const auto recent_window =
        umicro::core::SubtractSnapshot(current, *recent_start);
    if (!early_window.empty() && !recent_window.empty()) {
      umicro::core::EvolutionOptions evolution;
      evolution.macro.k = 5;
      const auto evo_report = umicro::core::CompareWindows(
          early_window, recent_window, evolution);
      std::printf("\nevolution (pre-shift window vs latest window): "
                  "%zu stable, %zu drifted, %zu born, %zu died\n",
                  evo_report.stable(), evo_report.drifted(),
                  evo_report.born(), evo_report.died());
    }
  }

  // Persist the final snapshot and reload it.
  const char* path = "final_snapshot.usnap";
  if (umicro::io::WriteSnapshotFile(current, path)) {
    const auto reloaded = umicro::io::ReadSnapshotFile(path);
    std::printf("\nsnapshot persisted to %s and reloaded: %zu clusters, "
                "time %.0f\n",
                path, reloaded->size(), reloaded->time);
  }
  return 0;
}
