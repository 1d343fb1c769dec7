// Ablation A4: exponential time decay on an abruptly evolving stream.
//
// Section II-E motivates decay for "evolving data streams in which the
// underlying patterns may change over time". This bench runs the decayed
// variant against the undecayed one on a regime-shift stream and reports
// purity per stream segment: decay should recover faster after shifts.

#include "bench/bench_common.h"
#include "synth/regime_generator.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 80000);

  umicro::synth::RegimeOptions regime;
  regime.regime_length = args.points / 4;  // 4 regimes over the run
  regime.seed = 77;
  umicro::synth::RegimeShiftGenerator generator(regime);
  umicro::stream::Dataset dataset = generator.Generate(args.points);
  umicro::synth::ApplyPaperNoise(dataset, args.eta, 78);

  const std::size_t interval = std::max<std::size_t>(1, args.points / 16);
  const std::vector<double> lambdas = {0.0, 1.0 / 20000.0, 1.0 / 5000.0,
                                       1.0 / 1000.0};

  std::printf("Ablation A4: time decay on a regime-shift stream "
              "(%zu points, 4 regimes, eta=%.2f)\n",
              args.points, args.eta);
  std::printf("%14s", "points");
  for (double lambda : lambdas) {
    if (lambda == 0.0) {
      std::printf(" %13s", "no-decay");
    } else {
      std::printf(" half-life=%-5.0f", 1.0 / lambda);
    }
  }
  std::printf("\n");

  std::vector<umicro::eval::PuritySeries> series;
  for (double lambda : lambdas) {
    umicro::core::UMicroOptions options;
    options.num_micro_clusters = args.num_micro_clusters;
    options.decay_lambda = lambda;
    umicro::core::UMicro algorithm(dataset.dimensions(), options);
    series.push_back(
        umicro::eval::RunPurityExperiment(algorithm, dataset, interval));
  }

  umicro::util::CsvWriter csv(
      {"points", "lambda0", "lambda_20000", "lambda_5000", "lambda_1000"});
  for (std::size_t i = 0; i < series[0].samples.size(); ++i) {
    std::printf("%14zu", series[0].samples[i].points_processed);
    std::vector<double> row = {
        static_cast<double>(series[0].samples[i].points_processed)};
    for (const auto& s : series) {
      std::printf(" %13.4f", s.samples[i].purity);
      row.push_back(s.samples[i].purity);
    }
    std::printf("\n");
    csv.AddRow(row);
  }
  csv.WriteFile("abl_decay.csv");
  return 0;
}
