// Parallel scaling sweep: sharded ingest throughput vs the sequential
// engine, with ECF-total conservation checks.
//
//   bench_parallel_scaling [--points=N] [--eta=X] [--nmicro=Q]
//                          [--merge-every=M] [--csv=PATH]
//
// For SynDrift and the intrusion (Network) generator, the sweep times the
// sequential UMicro and the sharded pipeline at 1/2/4/8 shards over the
// same stream, then verifies that the merged global ECF totals
// (n, CF1, EF2) are conserved: n must match the sequential run exactly
// (unit weights sum exactly in floating point), CF1/EF2 up to summation-
// order rounding, reported as max relative deviation per dimension.
// Runs use merge-only maintenance (effectively infinite eviction horizon)
// so the additive totals are conserved and comparable across engines.
//
// Note: speedup is bounded by the cores actually available; on a
// single-core host the sweep degenerates to measuring pipeline overhead.

#include "bench/bench_common.h"

#include <cmath>
#include <thread>

#include "parallel/parallel_engine.h"
#include "util/stopwatch.h"

namespace {

umicro::core::UMicroOptions MassConservingOptions(std::size_t nmicro) {
  umicro::core::UMicroOptions options;
  options.num_micro_clusters = nmicro;
  options.eviction_horizon = 1e18;  // merge-only: additive totals conserved
  return options;
}

struct EcfTotals {
  double n = 0.0;
  std::vector<double> cf1;
  std::vector<double> ef2;
};

EcfTotals TotalsOf(const umicro::core::Snapshot& clusters,
                   std::size_t dimensions) {
  EcfTotals totals;
  totals.cf1.assign(dimensions, 0.0);
  totals.ef2.assign(dimensions, 0.0);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    totals.n += clusters.weight(i);
    for (std::size_t j = 0; j < dimensions; ++j) {
      totals.cf1[j] += clusters.cf1(i)[j];
      totals.ef2[j] += clusters.ef2(i)[j];
    }
  }
  return totals;
}

// std::to_string renders sub-1e-6 deviations as "0.000000"; keep the
// recorded deviations meaningful with scientific notation.
std::string Scientific(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3e", value);
  return buffer;
}

double MaxRelativeDeviation(const std::vector<double>& a,
                            const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    const double scale = std::max({1.0, std::abs(a[j]), std::abs(b[j])});
    worst = std::max(worst, std::abs(a[j] - b[j]) / scale);
  }
  return worst;
}

void RunSweep(const std::string& workload,
              const umicro::stream::Dataset& dataset, std::size_t nmicro,
              std::size_t merge_every, umicro::util::CsvWriter& csv) {
  // Sequential reference.
  umicro::core::UMicro sequential(dataset.dimensions(),
                                  MassConservingOptions(nmicro));
  umicro::util::Stopwatch sequential_watch;
  for (const auto& point : dataset.points()) sequential.Process(point);
  const double sequential_seconds = sequential_watch.ElapsedSeconds();
  const double sequential_pps = dataset.size() / sequential_seconds;
  const EcfTotals sequential_totals =
      TotalsOf(sequential.TakeSnapshot(0.0), dataset.dimensions());

  std::printf("%s: %zu points x %zud, sequential %.0f pts/s "
              "(%zu hardware threads)\n",
              workload.c_str(), dataset.size(), dataset.dimensions(),
              sequential_pps,
              static_cast<std::size_t>(
                  std::thread::hardware_concurrency()));
  std::printf("%8s %12s %10s %10s %12s %12s %8s %9s\n", "shards", "pts/s",
              "speedup", "n-exact", "cf1-dev", "ef2-dev", "merges",
              "dropped");

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    umicro::parallel::ParallelEngineOptions options;
    options.sharded.umicro = MassConservingOptions(nmicro);
    options.sharded.num_shards = shards;
    options.sharded.merge_every = merge_every;
    options.snapshot.snapshot_every = 0;
    umicro::parallel::ParallelUMicroEngine sharded(dataset.dimensions(),
                                                   options);

    umicro::util::Stopwatch watch;
    for (const auto& point : dataset.points()) sharded.Process(point);
    sharded.Flush();
    const double seconds = watch.ElapsedSeconds();
    const double pps = dataset.size() / seconds;
    const double speedup = pps / sequential_pps;

    const EcfTotals totals =
        TotalsOf(sharded.GlobalClusters().frame, dataset.dimensions());
    const bool n_exact = totals.n == sequential_totals.n;
    const double cf1_dev =
        MaxRelativeDeviation(totals.cf1, sequential_totals.cf1);
    const double ef2_dev =
        MaxRelativeDeviation(totals.ef2, sequential_totals.ef2);
    const std::size_t merges = static_cast<std::size_t>(
        sharded.metrics().GetCounter("parallel.merges").value());
    const std::size_t dropped = static_cast<std::size_t>(
        sharded.metrics().GetCounter("parallel.points_dropped").value());

    std::printf("%8zu %12.0f %9.2fx %10s %12.2e %12.2e %8zu %9zu\n",
                shards, pps, speedup, n_exact ? "yes" : "NO", cf1_dev,
                ef2_dev, merges, dropped);
    csv.AddRow({workload, std::to_string(shards),
                std::to_string(dataset.size()),
                std::to_string(sequential_pps), std::to_string(pps),
                std::to_string(speedup), n_exact ? "1" : "0",
                Scientific(cf1_dev), Scientific(ef2_dev),
                std::to_string(merges), std::to_string(dropped),
                std::to_string(umicro::bench::HostCores()),
                umicro::bench::HostCpuModel()});
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace umicro::bench;
  const umicro::util::FlagParser flags(argc, argv);
  const std::size_t points = flags.GetSize("points", 200000);
  const double eta = flags.GetDouble("eta", 0.5);
  const std::size_t nmicro = flags.GetSize("nmicro", 100);
  const std::size_t merge_every = flags.GetSize("merge-every", 8192);
  const std::string csv_path =
      flags.GetString("csv", "parallel_scaling.csv");

  umicro::util::CsvWriter csv(
      {"workload", "shards", "points", "sequential_pps", "parallel_pps",
       "speedup", "n_exact", "cf1_max_rel_dev", "ef2_max_rel_dev",
       "merges", "dropped_points", "host_cores", "cpu_model"});

  const umicro::stream::Dataset syndrift =
      umicro::synth::MakeSynDriftWorkload(points, eta);
  RunSweep("SynDrift", syndrift, nmicro, merge_every, csv);

  const umicro::stream::Dataset network =
      umicro::synth::MakeNetworkWorkload(points, eta);
  RunSweep("Network", network, nmicro, merge_every, csv);

  csv.WriteFile(csv_path);
  std::printf("wrote %s\n", csv_path.c_str());
  return 0;
}
