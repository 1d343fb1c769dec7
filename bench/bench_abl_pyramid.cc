// Ablation A6: pyramidal time frame -- storage cost and horizon accuracy.
//
// Section II-D claims any horizon is approximable within 1/alpha^l while
// storage grows only logarithmically. This bench measures both on a real
// UMicro run: snapshots are inserted into stores with different (alpha, l)
// and the realized horizon error and retained-snapshot counts reported.

#include <cmath>

#include "bench/bench_common.h"
#include "core/snapshot.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 60000);
  const umicro::stream::Dataset dataset =
      umicro::synth::MakeSynDriftWorkload(args.points, args.eta);

  struct Config {
    std::size_t alpha;
    std::size_t l;
  };
  const std::vector<Config> configs = {{2, 1}, {2, 2}, {2, 3}, {3, 2}};
  const std::size_t snapshot_every = 50;

  std::printf("Ablation A6: pyramidal time frame (SynDrift(%.2f), %zu "
              "points, snapshot every %zu points)\n",
              args.eta, args.points, snapshot_every);
  std::printf("%8s %4s %10s %12s %16s %18s\n", "alpha", "l", "stored",
              "theoretical", "max-h-error", "bound 1/alpha^l");
  umicro::util::CsvWriter csv(
      {"alpha", "l", "stored_snapshots", "max_horizon_error", "bound"});

  for (const Config& config : configs) {
    umicro::core::UMicroOptions options;
    options.num_micro_clusters = args.num_micro_clusters;
    umicro::core::UMicro algorithm(dataset.dimensions(), options);
    umicro::core::SnapshotStore store(config.alpha, config.l);

    std::uint64_t tick = 0;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      algorithm.Process(dataset[i]);
      if ((i + 1) % snapshot_every == 0) {
        store.Insert(++tick, algorithm.TakeSnapshot(dataset[i].timestamp));
      }
    }

    // Realized relative horizon error over a geometric horizon sweep
    // (horizons in snapshot-tick units).
    const double now = static_cast<double>(tick);
    double max_error = 0.0;
    for (double h = 2.0; h < now * 0.8; h *= 1.5) {
      const auto nearest = store.FindNearest(
          dataset[dataset.size() - 1].timestamp -
          h * static_cast<double>(snapshot_every));
      if (!nearest.has_value()) continue;
      const double h_prime =
          (dataset[dataset.size() - 1].timestamp - nearest->time) /
          static_cast<double>(snapshot_every);
      max_error = std::max(max_error, std::abs(h - h_prime) / h);
    }
    const double bound =
        1.0 / std::pow(static_cast<double>(config.alpha),
                       static_cast<double>(config.l));
    std::printf("%8zu %4zu %10zu %12s %16.4f %18.4f\n", config.alpha,
                config.l, store.TotalStored(), "O(log t)", max_error,
                bound);
    csv.AddRow(std::vector<double>{
        static_cast<double>(config.alpha), static_cast<double>(config.l),
        static_cast<double>(store.TotalStored()), max_error, bound});
  }
  csv.WriteFile("abl_pyramid.csv");
  return 0;
}
