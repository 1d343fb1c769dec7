// Fleet scaling sweep: ingest throughput vs tenant count at a fixed
// point budget.
//
//   bench_fleet_scaling [--points=N] [--eta=X] [--nmicro=Q]
//                       [--workers=W] [--csv=PATH]
//
// For SynDrift and the intrusion (Network) generator, the sweep routes
// the same stream round-robin across 1/10/100/1000 tenants of an
// EngineFleet and records throughput, the ingest skew across the shared
// workers (max/mean worker load; 1.0 = perfectly even), and the p99 of
// the per-tenant batch drain latency. The expected shape (docs/fleet.md):
// throughput roughly flat in the tenant count -- the work is the same
// number of points through the same batched kernels, only per-tenant
// state grows -- with skew tightening toward 1.0 as tenants per worker
// grow.
//
// Note: on a single-core host the worker pool time-slices one core, so
// absolute throughput measures pipeline overhead, not parallel speedup.

#include "bench/bench_common.h"

#include "core/config.h"
#include "fleet/engine_fleet.h"
#include "util/stopwatch.h"

namespace {

void RunSweep(const std::string& workload,
              const umicro::stream::Dataset& dataset, std::size_t nmicro,
              std::size_t workers, umicro::util::CsvWriter& csv) {
  std::printf("%s: %zu points x %zud, %zu fleet workers "
              "(%zu hardware threads)\n",
              workload.c_str(), dataset.size(), dataset.dimensions(),
              workers, umicro::bench::HostCores());
  std::printf("%8s %12s %10s %16s\n", "tenants", "pts/s", "skew",
              "batch-p99(us)");

  for (const std::size_t tenants : {1u, 10u, 100u, 1000u}) {
    umicro::core::EngineConfig config;
    config.umicro.num_micro_clusters = nmicro;
    config.fleet.tenants = tenants;
    config.fleet.workers = workers;
    umicro::fleet::EngineFleet fleet(dataset.dimensions(), config);

    umicro::util::Stopwatch watch;
    std::uint64_t row = 0;
    for (const auto& point : dataset.points()) {
      fleet.Ingest(row % tenants, point);
      ++row;
    }
    fleet.Flush();
    const double seconds = watch.ElapsedSeconds();
    const double pps = dataset.size() / seconds;

    const umicro::fleet::FleetStats stats = fleet.Stats();
    const double batch_p99 =
        fleet.metrics()
            .GetHistogram("fleet.tenant_batch_micros")
            .Summarize()
            .p99;

    std::printf("%8zu %12.0f %10.3f %16.1f\n", tenants, pps,
                stats.ingest_skew, batch_p99);
    csv.AddRow({workload, std::to_string(tenants),
                std::to_string(workers), std::to_string(dataset.size()),
                std::to_string(pps), std::to_string(stats.ingest_skew),
                std::to_string(batch_p99),
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
  const std::size_t nmicro = flags.GetSize("nmicro", 25);
  const std::size_t workers = flags.GetSize("workers", 4);
  const std::string csv_path = flags.GetString("csv", "fleet_scaling.csv");

  umicro::util::CsvWriter csv(
      {"workload", "tenants", "workers", "points", "points_per_second",
       "ingest_skew", "batch_p99_micros", "host_cores", "cpu_model"});

  const umicro::stream::Dataset syndrift =
      umicro::synth::MakeSynDriftWorkload(points, eta);
  RunSweep("SynDrift", syndrift, nmicro, workers, csv);

  const umicro::stream::Dataset network =
      umicro::synth::MakeNetworkWorkload(points, eta);
  RunSweep("Network", network, nmicro, workers, csv);

  csv.WriteFile(csv_path);
  std::printf("wrote %s\n", csv_path.c_str());
  return 0;
}
