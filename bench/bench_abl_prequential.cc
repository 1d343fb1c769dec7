// Ablation A10: prequential (test-then-train) accuracy.
//
// Purity inspects clusters after the fact; the prequential protocol
// charges every record against the clustering that existed *before* it
// arrived. This bench contrasts UMicro and CluStream under that sharper
// protocol on the noisy forest-cover stream, where the purity gap is
// largest. (Finding: the two run neck and neck here -- nearest-centroid
// prediction of heavily overlapped classes is limited by the class
// overlap itself, so UMicro's purity advantage reflects cleaner cluster
// composition rather than better point-wise prediction.)

#include "bench/bench_common.h"
#include "eval/prequential.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 40000);
  const umicro::stream::Dataset dataset =
      umicro::synth::MakeForestWorkload(args.points, args.eta);
  const std::size_t interval = std::max<std::size_t>(1, args.points / 10);

  std::printf("Ablation A10: prequential accuracy (ForestCover(%.2f), "
              "%zu points, %zu micro-clusters)\n",
              args.eta, args.points, args.num_micro_clusters);

  umicro::core::UMicroOptions uopt;
  uopt.num_micro_clusters = args.num_micro_clusters;
  umicro::core::UMicro umicro_algo(dataset.dimensions(), uopt);
  const auto umicro_series = umicro::eval::RunPrequentialEvaluation(
      umicro_algo, dataset, interval);

  umicro::baseline::CluStreamOptions copt;
  copt.num_micro_clusters = args.num_micro_clusters;
  umicro::baseline::CluStream clustream_algo(dataset.dimensions(), copt);
  const auto clustream_series = umicro::eval::RunPrequentialEvaluation(
      clustream_algo, dataset, interval);

  std::printf("%14s %16s %16s\n", "points", "UMicro win-acc",
              "CluStream win-acc");
  umicro::util::CsvWriter csv(
      {"points", "umicro_window_accuracy", "clustream_window_accuracy"});
  const std::size_t rows = std::min(umicro_series.samples.size(),
                                    clustream_series.samples.size());
  for (std::size_t i = 0; i < rows; ++i) {
    std::printf("%14zu %16.4f %16.4f\n",
                umicro_series.samples[i].points_processed,
                umicro_series.samples[i].window_accuracy,
                clustream_series.samples[i].window_accuracy);
    csv.AddRow(std::vector<double>{
        static_cast<double>(umicro_series.samples[i].points_processed),
        umicro_series.samples[i].window_accuracy,
        clustream_series.samples[i].window_accuracy});
  }
  std::printf("final cumulative accuracy: UMicro %.4f vs CluStream %.4f\n",
              umicro_series.final_accuracy,
              clustream_series.final_accuracy);
  csv.WriteFile("abl_prequential.csv");
  return 0;
}
