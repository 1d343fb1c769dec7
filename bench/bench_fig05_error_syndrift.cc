// Figure 5: accuracy with increasing error level, SynDrift data set.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 60000);
  RunErrorLevelFigure(
      "Figure 5", "SynDrift",
      [](std::size_t n, double eta) {
        return umicro::synth::MakeSynDriftWorkload(n, eta);
      },
      args.points, args.num_micro_clusters, "fig05.csv", args.metrics_out);
  return 0;
}
