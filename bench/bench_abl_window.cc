// Ablation A9: one-pass micro-clustering vs windowed re-clustering.
//
// The paper dismisses static uncertain clustering because it "cannot be
// easily extended to the case of data streams". This bench quantifies
// the trade-off directly: UMicro against UK-means retrofitted with a
// sliding window, on both quality (purity over the stream) and cost
// (points per second).

#include "baseline/windowed_uk_means.h"
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 60000);
  const umicro::stream::Dataset dataset =
      umicro::synth::MakeSynDriftWorkload(args.points, args.eta);
  const std::size_t interval = std::max<std::size_t>(1, args.points / 10);

  std::printf("Ablation A9: one-pass vs windowed re-clustering "
              "(SynDrift(%.2f), %zu points)\n",
              args.eta, args.points);
  std::printf("%-22s %12s %14s\n", "algorithm", "mean purity", "pts/sec");
  umicro::util::CsvWriter csv({"algorithm_id", "mean_purity",
                               "points_per_second"});

  // UMicro, 100 micro-clusters.
  {
    umicro::core::UMicroOptions options;
    options.num_micro_clusters = args.num_micro_clusters;
    umicro::core::UMicro purity_algo(dataset.dimensions(), options);
    const double purity =
        umicro::eval::RunPurityExperiment(purity_algo, dataset, interval)
            .MeanPurity();
    umicro::core::UMicro speed_algo(dataset.dimensions(), options);
    const double pps = umicro::eval::RunThroughputExperiment(
                           speed_algo, dataset, interval)
                           .overall_points_per_second;
    std::printf("%-22s %12.4f %14.0f\n", "UMicro", purity, pps);
    csv.AddRow(std::vector<double>{0.0, purity, pps});
  }

  // Windowed UK-means at two window/recluster settings.
  int id = 1;
  for (const auto& [window, every] :
       std::vector<std::pair<std::size_t, std::size_t>>{{5000, 1000},
                                                        {10000, 2500}}) {
    umicro::baseline::WindowedUkMeansOptions options;
    options.uk_means.k = 20;
    options.window_size = window;
    options.recluster_every = every;
    umicro::baseline::WindowedUkMeans purity_algo(dataset.dimensions(),
                                                  options);
    const double purity =
        umicro::eval::RunPurityExperiment(purity_algo, dataset, interval)
            .MeanPurity();
    umicro::baseline::WindowedUkMeans speed_algo(dataset.dimensions(),
                                                 options);
    const double pps = umicro::eval::RunThroughputExperiment(
                           speed_algo, dataset, interval)
                           .overall_points_per_second;
    char name[64];
    std::snprintf(name, sizeof(name), "UKmeans w=%zu/%zu", window, every);
    std::printf("%-22s %12.4f %14.0f\n", name, purity, pps);
    csv.AddRow(std::vector<double>{static_cast<double>(id++), purity, pps});
  }
  csv.WriteFile("abl_window.csv");
  return 0;
}
