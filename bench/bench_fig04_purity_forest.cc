// Figure 4: accuracy with progression of the stream, ForestCover(0.5).

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 200000);
  const umicro::stream::Dataset dataset =
      umicro::synth::MakeForestWorkload(args.points, args.eta);
  RunPurityProgressionFigure("Figure 4", "ForestCover(0.5)", dataset,
                             args.num_micro_clusters, "fig04.csv", args.metrics_out);
  return 0;
}
