// Figure 8: efficiency of stream clustering, SynDrift data set.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 200000);
  const umicro::stream::Dataset dataset =
      umicro::synth::MakeSynDriftWorkload(args.points, args.eta);
  RunThroughputFigure("Figure 8", "SynDrift(0.5)", dataset,
                      args.num_micro_clusters, "fig08.csv", args.metrics_out);
  return 0;
}
