// Figure 6: accuracy with increasing error level, Network Intrusion.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const BenchArgs args = BenchArgs::Parse(argc, argv, 60000);
  RunErrorLevelFigure(
      "Figure 6", "Network",
      [](std::size_t n, double eta) {
        return umicro::synth::MakeNetworkWorkload(n, eta);
      },
      args.points, args.num_micro_clusters, "fig06.csv", args.metrics_out);
  return 0;
}
