// Ablation A1: dimension-counting similarity vs raw expected distance.
//
// Section II-B argues that pruning uncertain dimensions improves the
// quality of the similarity computation. This bench quantifies that: the
// same UMicro configuration is run with the dimension-counting similarity
// (the paper's choice) and with the plain minimum expected distance.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 60000);
  const std::vector<double> etas = {0.5, 1.0, 1.5, 2.0};

  std::printf("Ablation A1: similarity function (SynDrift, %zu points per "
              "level, %zu micro-clusters)\n",
              args.points, args.num_micro_clusters);
  std::printf("%8s %18s %18s\n", "eta", "dim-counting", "expected-dist");
  umicro::util::CsvWriter csv({"eta", "dim_counting", "expected_distance"});
  for (double eta : etas) {
    const umicro::stream::Dataset dataset =
        umicro::synth::MakeSynDriftWorkload(args.points, eta);
    const std::size_t interval = std::max<std::size_t>(1, args.points / 10);

    umicro::core::UMicroOptions counting;
    counting.num_micro_clusters = args.num_micro_clusters;
    counting.similarity = umicro::core::SimilarityMode::kDimensionCounting;
    umicro::core::UMicro counting_algo(dataset.dimensions(), counting);
    const double counting_purity =
        umicro::eval::RunPurityExperiment(counting_algo, dataset, interval)
            .MeanPurity();

    umicro::core::UMicroOptions expected = counting;
    expected.similarity = umicro::core::SimilarityMode::kExpectedDistance;
    umicro::core::UMicro expected_algo(dataset.dimensions(), expected);
    const double expected_purity =
        umicro::eval::RunPurityExperiment(expected_algo, dataset, interval)
            .MeanPurity();

    std::printf("%8.2f %18.4f %18.4f\n", eta, counting_purity,
                expected_purity);
    csv.AddRow(std::vector<double>{eta, counting_purity, expected_purity});
  }
  csv.WriteFile("abl_similarity.csv");
  return 0;
}
