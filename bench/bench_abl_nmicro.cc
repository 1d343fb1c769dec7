// Ablation A3: number of micro-clusters.
//
// The paper runs all experiments with 100 micro-clusters; this bench
// sweeps the budget and reports purity and throughput, exposing the
// quality/cost trade-off of the micro-cluster granularity.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 60000);
  const umicro::stream::Dataset dataset =
      umicro::synth::MakeSynDriftWorkload(args.points, args.eta);
  const std::size_t interval = std::max<std::size_t>(1, args.points / 10);

  std::printf("Ablation A3: micro-cluster budget (SynDrift(%.2f), %zu "
              "points)\n",
              args.eta, args.points);
  std::printf("%8s %12s %14s\n", "n_micro", "purity", "pts/sec");
  umicro::util::CsvWriter csv({"n_micro", "purity", "points_per_second"});
  for (std::size_t n_micro : {25u, 50u, 100u, 200u}) {
    umicro::core::UMicroOptions options;
    options.num_micro_clusters = n_micro;
    umicro::core::UMicro purity_algo(dataset.dimensions(), options);
    const double purity =
        umicro::eval::RunPurityExperiment(purity_algo, dataset, interval)
            .MeanPurity();

    umicro::core::UMicro throughput_algo(dataset.dimensions(), options);
    const double pps =
        umicro::eval::RunThroughputExperiment(throughput_algo, dataset,
                                              interval)
            .overall_points_per_second;

    std::printf("%8zu %12.4f %14.0f\n", n_micro, purity, pps);
    csv.AddRow(std::vector<double>{static_cast<double>(n_micro), purity,
                                   pps});
  }
  csv.WriteFile("abl_nmicro.csv");
  return 0;
}
