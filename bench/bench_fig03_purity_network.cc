// Figure 3: accuracy with progression of the stream, Network(0.5).

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 200000);
  const umicro::stream::Dataset dataset =
      umicro::synth::MakeNetworkWorkload(args.points, args.eta);
  RunPurityProgressionFigure("Figure 3", "Network(0.5)", dataset,
                             args.num_micro_clusters, "fig03.csv", args.metrics_out);
  return 0;
}
