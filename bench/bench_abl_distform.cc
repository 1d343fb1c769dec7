// Ablation A7: paper-literal expected distance vs bias-corrected form.
//
// Lemma 2.2's expected distance contains the cluster-error term EF2/n^2,
// which shrinks as a cluster grows; used verbatim for cross-cluster
// comparison it can favor heavy clusters (rich-get-richer). The library
// defaults to the paper-literal form and offers a bias-corrected
// alternative (EF2/n^2 dropped from comparisons). This bench reports
// both side by side -- paper-metric purity, mass-weighted purity, and
// the weight of the largest cluster -- on the 20-d SynDrift stream and
// on a low-dimensional stream where the forms diverge most.

#include "bench/bench_common.h"
#include "eval/purity.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 60000);
  const std::vector<double> etas = {0.5, 1.0, 1.5, 2.0};

  std::printf("Ablation A7: distance form (SynDrift, %zu points per level, "
              "%zu micro-clusters)\n",
              args.points, args.num_micro_clusters);
  std::printf("%8s | %10s %10s %10s | %10s %10s %10s\n", "eta",
              "corr-pur", "corr-wpur", "corr-maxw", "lit-pur", "lit-wpur",
              "lit-maxw");
  umicro::util::CsvWriter csv({"eta", "corrected_purity",
                               "corrected_weighted_purity",
                               "corrected_max_weight", "literal_purity",
                               "literal_weighted_purity",
                               "literal_max_weight"});
  const std::size_t interval = std::max<std::size_t>(1, args.points / 10);

  for (double eta : etas) {
    const umicro::stream::Dataset dataset =
        umicro::synth::MakeSynDriftWorkload(args.points, eta);
    std::vector<double> row = {eta};
    for (auto form : {umicro::core::DistanceForm::kComparable,
                      umicro::core::DistanceForm::kPaperExpected}) {
      umicro::core::UMicroOptions options;
      options.num_micro_clusters = args.num_micro_clusters;
      options.distance_form = form;
      umicro::core::UMicro algorithm(dataset.dimensions(), options);
      const auto series =
          umicro::eval::RunPurityExperiment(algorithm, dataset, interval);
      double max_weight = 0.0;
      for (const auto& cluster : algorithm.clusters()) {
        max_weight = std::max(max_weight, cluster.ecf.weight());
      }
      const auto histograms = algorithm.ClusterLabelHistograms();
      row.push_back(series.MeanPurity());
      row.push_back(umicro::eval::WeightedClusterPurity(histograms));
      row.push_back(max_weight);
    }
    std::printf("%8.2f | %10.4f %10.4f %10.0f | %10.4f %10.4f %10.0f\n",
                row[0], row[1], row[2], row[3], row[4], row[5], row[6]);
    csv.AddRow(row);
  }
  csv.WriteFile("abl_distform.csv");

  // Low-dimensional section: with few dimensions the two forms diverge
  // most -- the corrected form absorbs more aggressively and
  // concentrates mass, while the literal form's inflated distances keep
  // more (purer) fragments.
  std::printf("\nlow-dimensional stream (4-d, 4 clusters):\n");
  std::printf("%8s | %10s %10s | %10s %10s\n", "eta", "corr-pur",
              "corr-maxw", "lit-pur", "lit-maxw");
  for (double eta : {0.5, 1.0}) {
    umicro::synth::DriftOptions drift;
    drift.dimensions = 4;
    drift.num_clusters = 4;
    drift.max_radius = 0.3;
    drift.seed = 42;
    umicro::synth::DriftingGaussianGenerator generator(drift);
    umicro::stream::Dataset dataset = generator.Generate(args.points / 2);
    umicro::synth::ApplyPaperNoise(dataset, eta, 43);

    std::vector<double> row = {eta};
    for (auto form : {umicro::core::DistanceForm::kComparable,
                      umicro::core::DistanceForm::kPaperExpected}) {
      umicro::core::UMicroOptions options;
      options.num_micro_clusters = args.num_micro_clusters;
      options.distance_form = form;
      umicro::core::UMicro algorithm(dataset.dimensions(), options);
      const auto series = umicro::eval::RunPurityExperiment(
          algorithm, dataset, std::max<std::size_t>(1, dataset.size() / 5));
      double max_weight = 0.0;
      for (const auto& cluster : algorithm.clusters()) {
        max_weight = std::max(max_weight, cluster.ecf.weight());
      }
      row.push_back(series.MeanPurity());
      row.push_back(max_weight);
    }
    std::printf("%8.2f | %10.4f %10.0f | %10.4f %10.0f\n", row[0], row[1],
                row[2], row[3], row[4]);
  }
  return 0;
}
