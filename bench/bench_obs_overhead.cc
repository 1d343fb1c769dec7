// Observability overhead: UMicro throughput with the metrics registry
// attached vs detached, on the Figure 8 SynDrift workload.
//
//   bench_obs_overhead [--points=N] [--eta=X] [--nmicro=Q]
//                      [--reps=R] [--csv=PATH]
//
// Each configuration runs `reps` times over the same stream; the best
// rep is reported (the usual least-noise estimator for throughput). The
// detached run pays one null-pointer test per probe site and no clock
// reads; the attached run adds two steady_clock reads per point plus a
// handful of relaxed atomic increments. The acceptance bar for the
// instrumentation is <= 5% overhead.

#include "bench/bench_common.h"

#include "util/stopwatch.h"

namespace {

double BestRate(const umicro::stream::Dataset& dataset, std::size_t nmicro,
                std::size_t reps, umicro::obs::MetricsRegistry* registry) {
  double best = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    umicro::core::UMicroOptions options;
    options.num_micro_clusters = nmicro;
    umicro::core::UMicro algo(dataset.dimensions(), options);
    algo.AttachMetrics(registry);
    umicro::util::Stopwatch watch;
    for (const auto& point : dataset.points()) algo.Process(point);
    const double seconds = watch.ElapsedSeconds();
    if (seconds > 0.0) {
      best = std::max(best, static_cast<double>(dataset.size()) / seconds);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const umicro::util::FlagParser flags(argc, argv);
  const std::size_t points = flags.GetSize("points", 200000);
  const double eta = flags.GetDouble("eta", 0.5);
  const std::size_t nmicro = flags.GetSize("nmicro", 100);
  const std::size_t reps = flags.GetSize("reps", 3);
  const std::string csv_path = flags.GetString("csv", "obs_overhead.csv");

  const umicro::stream::Dataset dataset =
      umicro::synth::MakeSynDriftWorkload(points, eta);
  std::printf("observability overhead: SynDrift(%0.2f), %zu points x %zud, "
              "%zu micro-clusters, best of %zu reps\n",
              eta, dataset.size(), dataset.dimensions(), nmicro, reps);

  const double detached_pps = BestRate(dataset, nmicro, reps, nullptr);
  umicro::obs::MetricsRegistry registry;
  const double attached_pps = BestRate(dataset, nmicro, reps, &registry);
  const double overhead =
      detached_pps > 0.0 ? 1.0 - attached_pps / detached_pps : 0.0;

  std::printf("%12s %14s\n", "metrics", "pts/s");
  std::printf("%12s %14.0f\n", "detached", detached_pps);
  std::printf("%12s %14.0f\n", "attached", attached_pps);
  std::printf("overhead: %.2f%% (bar: <= 5%%)\n", 100.0 * overhead);

  umicro::util::CsvWriter csv(
      {"workload", "points", "nmicro", "reps", "detached_pps",
       "attached_pps", "overhead_percent"});
  csv.AddRow({std::string("SynDrift"), std::to_string(points),
              std::to_string(nmicro), std::to_string(reps),
              std::to_string(detached_pps), std::to_string(attached_pps),
              std::to_string(100.0 * overhead)});
  csv.WriteFile(csv_path);
  std::printf("wrote %s\n", csv_path.c_str());
  return 0;
}
