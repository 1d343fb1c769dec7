// Graceful-degradation benchmark: what does load shedding cost in
// clustering quality, and what does it buy in ingest latency?
//
//   bench_degradation [--points=N] [--eta=X] [--nmicro=Q] [--csv=PATH]
//
// Three runs over the same SynDrift stream through the sharded pipeline:
//
//   healthy      -- no overload, shedding off (the quality ceiling)
//   overloaded   -- workers stalled via the "parallel.worker.stall"
//                   failpoint, shedding off: kBlock backpressure keeps
//                   every point but ingest time balloons
//   degraded     -- same stall, adaptive shedding on: the controller
//                   drops whole batches while pressured and the stream
//                   keeps moving
//
// The CSV reports, per run, the ingest wall time, points shed, and the
// final cluster purity of the merged global view -- the degraded run
// should recover most of the healthy run's purity at a fraction of the
// overloaded run's wall time.

#include "bench/bench_common.h"

#include <string>

#include "eval/purity.h"
#include "parallel/parallel_engine.h"
#include "util/failpoints.h"
#include "util/stopwatch.h"

namespace {

struct RunResult {
  std::string config;
  double elapsed_ms = 0.0;
  std::uint64_t shed_points = 0;
  std::uint64_t processed = 0;
  double purity = 0.0;
  double weighted_purity = 0.0;
};

RunResult RunOnce(const std::string& config,
                  const umicro::stream::Dataset& dataset,
                  std::size_t nmicro, bool stalled, bool degrade) {
  umicro::parallel::ParallelEngineOptions options;
  options.sharded.umicro.num_micro_clusters = nmicro;
  options.sharded.num_shards = 2;
  options.sharded.queue_capacity = 4;
  options.sharded.producer_batch = 64;
  options.sharded.merge_every = 8192;
  options.sharded.degrade.enabled = degrade;
  options.sharded.degrade.occupancy_trigger = 0.5;
  options.sharded.degrade.trigger_after = 4;
  options.sharded.degrade.recover_after = 16;
  // Probabilistic shedding: while pressured, drop roughly half the
  // batches rather than all of them, so the survivors stay a uniform
  // sample of the stream and the global view keeps tracking it.
  options.sharded.degrade.shed_probability = 0.5;
  options.snapshot.snapshot_every = 0;
  umicro::parallel::ParallelUMicroEngine sharded(dataset.dimensions(), options);

  if (stalled) {
    umicro::util::FailpointRegistry::Instance().Arm(
        "parallel.worker.stall", {.stall_millis = 1});
  }
  umicro::util::Stopwatch stopwatch;
  for (const auto& point : dataset.points()) sharded.Process(point);
  sharded.Flush();
  const double elapsed_ms = stopwatch.ElapsedMillis();
  umicro::util::FailpointRegistry::Instance().DisarmAll();

  RunResult result;
  result.config = config;
  result.elapsed_ms = elapsed_ms;
  result.shed_points =
      sharded.metrics().GetCounter("parallel.degrade.points_shed").value();
  result.processed = sharded.points_processed() - result.shed_points;
  const auto histograms = sharded.ClusterLabelHistograms();
  result.purity = umicro::eval::ClusterPurity(histograms);
  result.weighted_purity = umicro::eval::WeightedClusterPurity(histograms);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = umicro::bench::BenchArgs::Parse(argc, argv, 40000);
  const umicro::util::FlagParser flags(argc, argv);
  const std::string csv_path = flags.GetString("csv", "degradation.csv");

  umicro::stream::Dataset dataset =
      umicro::synth::MakeSynDriftWorkload(args.points, args.eta);

  std::printf("degradation sweep: SynDrift, %zu points, eta=%.2f, "
              "%zu micro-clusters, 2 shards\n",
              dataset.size(), args.eta, args.num_micro_clusters);

  const RunResult runs[] = {
      RunOnce("healthy", dataset, args.num_micro_clusters,
              /*stalled=*/false, /*degrade=*/false),
      RunOnce("overloaded", dataset, args.num_micro_clusters,
              /*stalled=*/true, /*degrade=*/false),
      RunOnce("degraded", dataset, args.num_micro_clusters,
              /*stalled=*/true, /*degrade=*/true),
  };

  umicro::util::CsvWriter csv({"config", "points", "processed",
                               "shed_points", "elapsed_ms",
                               "throughput_pts_per_s", "purity",
                               "weighted_purity"});
  for (const RunResult& run : runs) {
    const double throughput =
        run.elapsed_ms > 0.0
            ? static_cast<double>(dataset.size()) / (run.elapsed_ms / 1e3)
            : 0.0;
    std::printf("  %-10s  %8.1f ms  shed %7llu  purity %.4f "
                "(weighted %.4f)\n",
                run.config.c_str(), run.elapsed_ms,
                static_cast<unsigned long long>(run.shed_points),
                run.purity, run.weighted_purity);
    csv.AddRow(std::vector<std::string>{
        run.config, std::to_string(dataset.size()),
        std::to_string(run.processed), std::to_string(run.shed_points),
        std::to_string(run.elapsed_ms), std::to_string(throughput),
        std::to_string(run.purity), std::to_string(run.weighted_purity)});
  }
  if (!csv.WriteFile(csv_path)) {
    std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", csv_path.c_str());
  return 0;
}
