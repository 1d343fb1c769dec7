// Figure 10: efficiency of stream clustering, Forest Cover data set.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 200000);
  const umicro::stream::Dataset dataset =
      umicro::synth::MakeForestWorkload(args.points, args.eta);
  RunThroughputFigure("Figure 10", "ForestCover(0.5)", dataset,
                      args.num_micro_clusters, "fig10.csv", args.metrics_out);
  return 0;
}
