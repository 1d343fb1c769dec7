// Distributed merge-tree throughput: leaf count vs merged ingest rate
// over real loopback sockets.
//
//   bench_dist_throughput [--points=N] [--delta-every=M]
//                         [--leaves-max=L] [--nmicro=Q] [--csv=PATH]
//
// For 1..L leaves, the stream is round-robin partitioned; each leaf
// thread runs a sequential engine over its substream and ships
// "ucheckpoint 2" deltas every --delta-every points through a
// dist::LeafShipper to one in-process Aggregator (TCP on 127.0.0.1,
// exactly the multi-process wire path). Reported per leaf count:
// end-to-end merged ingest rate (all points acked and merged), bytes
// shipped per point, aggregator merge count/latency, and whether the
// final merged view is bit-identical to the in-process sharded
// reference -- the exactness claim under load, not just in the e2e test.
//
// Note: leaves are threads here, so on a single-core host the sweep
// measures protocol + merge overhead, not scale-out; host_cores /
// cpu_model columns make that explicit in the CSV.

#include "bench/bench_common.h"

#include <thread>

#include "dist/aggregator.h"
#include "dist/leaf.h"
#include "io/state_io.h"
#include "parallel/parallel_engine.h"
#include "util/stopwatch.h"

namespace {

using umicro::stream::Dataset;

umicro::core::EngineConfig LeafOptions(std::size_t nmicro) {
  umicro::core::EngineConfig options;
  options.umicro.num_micro_clusters = nmicro;
  options.snapshot.snapshot_every = 0;  // snapshot cost is not under test
  return options;
}

struct SweepResult {
  double merged_pps = 0.0;
  double bytes_per_point = 0.0;
  std::uint64_t merges = 0;
  double merge_mean_micros = 0.0;
  bool bit_identical = false;
};

SweepResult RunTopology(const Dataset& dataset, std::size_t leaves,
                        std::size_t delta_every, std::size_t nmicro,
                        const std::string& reference) {
  using umicro::dist::Aggregator;
  using umicro::dist::AggregatorOptions;
  using umicro::dist::LeafShipper;
  using umicro::dist::LeafShipperOptions;

  umicro::obs::MetricsRegistry metrics;
  AggregatorOptions agg_options;
  agg_options.dimensions = dataset.dimensions();
  agg_options.dimension_threshold =
      LeafOptions(nmicro).umicro.dimension_threshold;
  agg_options.global_budget = nmicro;
  Aggregator aggregator(agg_options, &metrics);
  if (!aggregator.Start()) return {};

  umicro::util::Stopwatch watch;
  std::vector<std::thread> workers;
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    workers.emplace_back([&, leaf] {
      umicro::core::UMicroEngine engine(dataset.dimensions(),
                                        LeafOptions(nmicro));
      LeafShipperOptions options;
      options.leaf_id = leaf;
      options.dimensions = dataset.dimensions();
      LeafShipper shipper({"127.0.0.1", aggregator.port()}, options,
                          &metrics);
      std::uint64_t done = 0;
      for (std::size_t i = leaf; i < dataset.size(); i += leaves) {
        engine.Process(dataset.points()[i]);
        ++done;
        if (done % delta_every == 0) {
          shipper.ShipState(
              done, done,
              umicro::io::EngineStateToString(engine.ExportEngineState()));
        }
      }
      engine.Flush();
      shipper.ShipState(
          done, done,
          umicro::io::EngineStateToString(engine.ExportEngineState()));
      shipper.Finish();
    });
  }
  for (auto& worker : workers) worker.join();
  aggregator.WaitForPoints(dataset.size(), 60000);
  const double seconds = watch.ElapsedSeconds();

  SweepResult result;
  result.merged_pps = dataset.size() / seconds;
  result.bytes_per_point =
      static_cast<double>(metrics.GetCounter("dist.leaf.bytes").value()) /
      static_cast<double>(dataset.size());
  result.merges = metrics.GetCounter("dist.agg.merges").value();
  const auto& merge_micros = metrics.GetHistogram("dist.agg.merge_micros");
  result.merge_mean_micros =
      merge_micros.count() > 0
          ? merge_micros.sum() / static_cast<double>(merge_micros.count())
          : 0.0;
  result.bit_identical =
      umicro::io::MicroClustersToString(aggregator.MergedClusters(),
                                        dataset.dimensions()) == reference;
  aggregator.Stop();
  return result;
}

/// The single-process reference for `leaves` shards (bit-identity
/// check): the sharded engine over the same round-robin partitioning.
std::string ShardedReference(const Dataset& dataset, std::size_t shards,
                             std::size_t nmicro) {
  umicro::parallel::ParallelEngineOptions options;
  options.sharded.umicro = LeafOptions(nmicro).umicro;
  options.sharded.num_shards = shards;
  options.sharded.producer_batch = 1;
  options.sharded.merge_every = 0;
  options.snapshot.snapshot_every = 0;
  umicro::parallel::ParallelUMicroEngine sharded(dataset.dimensions(), options);
  for (const auto& point : dataset.points()) sharded.Process(point);
  sharded.Flush();
  return umicro::io::MicroClustersToString(sharded.GlobalClusters(),
                                           dataset.dimensions());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const umicro::util::FlagParser flags(argc, argv);
  const std::size_t points = flags.GetSize("points", 50000);
  const std::size_t delta_every = flags.GetSize("delta-every", 4096);
  const std::size_t leaves_max = flags.GetSize("leaves-max", 4);
  const std::size_t nmicro = flags.GetSize("nmicro", 100);
  const std::string csv_path = flags.GetString("csv", "dist_throughput.csv");

  const Dataset dataset = umicro::synth::MakeSynDriftWorkload(points, 0.5);
  std::printf("dist-throughput bench: %zu points x %zud, delta every %zu "
              "points, 1..%zu leaves over 127.0.0.1 (%zu hardware "
              "threads)\n",
              dataset.size(), dataset.dimensions(), delta_every,
              leaves_max, HostCores());
  std::printf("%8s %12s %12s %8s %14s %10s\n", "leaves", "merged_pps",
              "bytes/pt", "merges", "merge_mean_us", "identical");

  umicro::util::CsvWriter csv({"leaves", "points", "delta_every",
                               "merged_pps", "bytes_per_point", "merges",
                               "merge_mean_micros", "bit_identical",
                               "host_cores", "cpu_model"});
  for (std::size_t leaves = 1; leaves <= leaves_max; ++leaves) {
    const std::string reference =
        ShardedReference(dataset, leaves, nmicro);
    const SweepResult result =
        RunTopology(dataset, leaves, delta_every, nmicro, reference);
    std::printf("%8zu %12.0f %12.1f %8llu %14.1f %10s\n", leaves,
                result.merged_pps, result.bytes_per_point,
                static_cast<unsigned long long>(result.merges),
                result.merge_mean_micros,
                result.bit_identical ? "yes" : "NO");
    char pps[64], bpp[64], mean[64];
    std::snprintf(pps, sizeof(pps), "%.6g", result.merged_pps);
    std::snprintf(bpp, sizeof(bpp), "%.6g", result.bytes_per_point);
    std::snprintf(mean, sizeof(mean), "%.6g", result.merge_mean_micros);
    csv.AddRow({std::to_string(leaves), std::to_string(dataset.size()),
                std::to_string(delta_every), pps, bpp,
                std::to_string(result.merges), mean,
                result.bit_identical ? "1" : "0",
                std::to_string(HostCores()), HostCpuModel()});
  }
  if (!csv.WriteFile(csv_path)) {
    std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
    return 1;
  }
  std::printf("results written to %s\n", csv_path.c_str());
  return 0;
}
