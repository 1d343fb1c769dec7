// Figure 9: efficiency of stream clustering, Network Intrusion data set.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 200000);
  const umicro::stream::Dataset dataset =
      umicro::synth::MakeNetworkWorkload(args.points, args.eta);
  RunThroughputFigure("Figure 9", "Network(0.5)", dataset,
                      args.num_micro_clusters, "fig09.csv", args.metrics_out);
  return 0;
}
