// Ablation A2: the uncertainty-boundary factor t.
//
// Section II-C fixes t = 3 ("a high level of certainty ... with the use
// of the normal distribution assumption"). This bench sweeps t and
// reports purity plus how often new micro-clusters were created, showing
// the absorb-vs-create trade-off behind the paper's choice.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 60000);
  const umicro::stream::Dataset dataset =
      umicro::synth::MakeSynDriftWorkload(args.points, args.eta);
  const std::size_t interval = std::max<std::size_t>(1, args.points / 10);

  std::printf("Ablation A2: boundary factor t (SynDrift(%.2f), %zu points, "
              "%zu micro-clusters)\n",
              args.eta, args.points, args.num_micro_clusters);
  std::printf("%8s %12s %16s %16s\n", "t", "purity", "clusters-created",
              "evictions");
  umicro::util::CsvWriter csv({"t", "purity", "created", "evicted"});
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    umicro::core::UMicroOptions options;
    options.num_micro_clusters = args.num_micro_clusters;
    options.boundary_factor = t;
    umicro::core::UMicro algorithm(dataset.dimensions(), options);
    const double purity =
        umicro::eval::RunPurityExperiment(algorithm, dataset, interval)
            .MeanPurity();
    std::printf("%8.1f %12.4f %16zu %16zu\n", t, purity,
                algorithm.clusters_created(), algorithm.clusters_evicted());
    csv.AddRow(std::vector<double>{
        t, purity, static_cast<double>(algorithm.clusters_created()),
        static_cast<double>(algorithm.clusters_evicted())});
  }
  csv.WriteFile("abl_boundary.csv");
  return 0;
}
