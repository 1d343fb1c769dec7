// Figure 7: accuracy with increasing error level, Forest Cover.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 60000);
  RunErrorLevelFigure(
      "Figure 7", "ForestCover",
      [](std::size_t n, double eta) {
        return umicro::synth::MakeForestWorkload(n, eta);
      },
      args.points, args.num_micro_clusters, "fig07.csv", args.metrics_out);
  return 0;
}
