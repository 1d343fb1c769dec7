// Serve-concurrency bench: what does answering queries cost ingest?
//
//   bench_serve_concurrency [--points=N] [--queriers-max=Q]
//                           [--query-interval-ms=T] [--horizon=H]
//                           [--csv=PATH]
//
// One thread ingests a SynDrift stream through the sequential engine
// (replica attached, so every cadence snapshot is published); 0..Q
// paced query threads concurrently issue CLUSTER-style horizon queries
// through the broker at one query per --query-interval-ms each. For
// every querier count the bench reports ingest throughput, its loss
// relative to the query-free baseline, and the query latency
// distribution -- the acceptance row is loss < 5% at 4 queriers.
//
// The queriers are paced (default 20 qps each), modeling an interactive
// dashboard rather than a saturation load: on a single-core host an
// unpaced closed loop would time-slice the one core between ingest and
// queries and measure the scheduler, not the serving layer's contention
// (which is the claim under test: the replica swap adds no locking to
// the ingest path).

#include "bench/bench_common.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "serve/query_broker.h"
#include "serve/replica.h"
#include "util/stopwatch.h"

namespace {

struct RunResult {
  double ingest_pps = 0.0;
  std::uint64_t queries = 0;
  double query_mean_micros = 0.0;
  double query_p99_micros = 0.0;
};

RunResult RunOnce(const umicro::stream::Dataset& dataset,
                  std::size_t queriers, double query_interval_ms,
                  double horizon) {
  umicro::core::EngineConfig options;
  options.umicro.num_micro_clusters = 100;
  options.umicro.decay_lambda = 0.001;
  options.snapshot.snapshot_every = 4096;
  umicro::core::UMicroEngine engine(dataset.dimensions(), options);
  umicro::serve::SnapshotReadReplica replica(options.snapshot,
                                             options.umicro.decay_lambda);
  engine.AttachSnapshotSink(&replica);

  umicro::serve::QueryBrokerOptions broker_options;
  broker_options.num_threads = queriers == 0 ? 1 : queriers;
  umicro::serve::QueryBroker broker(&replica, broker_options,
                                    &engine.metrics());

  std::atomic<bool> done{false};
  std::vector<std::thread> query_threads;
  std::vector<double> latencies_micros;
  std::mutex latencies_mu;
  for (std::size_t q = 0; q < queriers; ++q) {
    query_threads.emplace_back([&, q] {
      std::vector<double> local;
      while (!done.load(std::memory_order_relaxed)) {
        umicro::serve::QueryRequest request;
        request.kind = umicro::serve::QueryRequest::Kind::kClusterRecent;
        request.horizon = horizon;
        const auto start = std::chrono::steady_clock::now();
        broker.Submit(request).get();
        const auto end = std::chrono::steady_clock::now();
        local.push_back(
            std::chrono::duration<double, std::micro>(end - start).count());
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            query_interval_ms));
      }
      std::lock_guard<std::mutex> lock(latencies_mu);
      latencies_micros.insert(latencies_micros.end(), local.begin(),
                              local.end());
    });
  }

  umicro::util::Stopwatch stopwatch;
  constexpr std::size_t kBatch = 256;
  std::vector<umicro::stream::UncertainPoint> batch;
  batch.reserve(kBatch);
  for (std::size_t i = 0; i < dataset.size(); i += kBatch) {
    batch.clear();
    const std::size_t n = std::min(kBatch, dataset.size() - i);
    for (std::size_t j = 0; j < n; ++j) batch.push_back(dataset[i + j]);
    engine.ProcessBatch(batch);
  }
  const double seconds = stopwatch.ElapsedSeconds();
  done.store(true);
  for (auto& thread : query_threads) thread.join();
  engine.Flush();

  RunResult result;
  result.ingest_pps = static_cast<double>(dataset.size()) / seconds;
  result.queries = latencies_micros.size();
  if (!latencies_micros.empty()) {
    double sum = 0.0;
    for (const double v : latencies_micros) sum += v;
    result.query_mean_micros =
        sum / static_cast<double>(latencies_micros.size());
    std::sort(latencies_micros.begin(), latencies_micros.end());
    result.query_p99_micros =
        latencies_micros[latencies_micros.size() * 99 / 100];
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const umicro::util::FlagParser flags(argc, argv);
  const std::size_t points = flags.GetSize("points", 400000);
  const std::size_t queriers_max = flags.GetSize("queriers-max", 4);
  const double query_interval_ms =
      flags.GetDouble("query-interval-ms", 50.0);
  const double horizon = flags.GetDouble("horizon", 50000.0);
  const std::string csv_path =
      flags.GetString("csv", "serve_concurrency.csv");

  std::printf("serve-concurrency bench: %zu points, 0..%zu paced queriers "
              "(1 query / %.0f ms each), horizon %.0f\n",
              points, queriers_max, query_interval_ms, horizon);
  const umicro::stream::Dataset dataset =
      umicro::synth::MakeSynDriftWorkload(points, 0.5);

  umicro::util::CsvWriter csv({"queriers", "ingest_pps", "loss_pct",
                               "queries", "qps", "query_mean_micros",
                               "query_p99_micros", "host_cores",
                               "cpu_model"});
  // Discarded warmup: the first run pays allocator/page-cache warmup
  // that would otherwise be billed to the query-free baseline.
  (void)RunOnce(dataset, 0, query_interval_ms, horizon);
  const std::size_t repeats = flags.GetSize("repeats", 3);
  double baseline_pps = 0.0;
  for (std::size_t queriers = 0; queriers <= queriers_max; ++queriers) {
    // Median-of-repeats on ingest throughput: scheduler noise on a
    // shared (possibly single-core) host swamps the few-percent effect
    // under test in any single run.
    std::vector<RunResult> runs;
    for (std::size_t r = 0; r < repeats; ++r) {
      runs.push_back(RunOnce(dataset, queriers, query_interval_ms, horizon));
    }
    std::sort(runs.begin(), runs.end(),
              [](const RunResult& a, const RunResult& b) {
                return a.ingest_pps < b.ingest_pps;
              });
    const RunResult run = runs[runs.size() / 2];
    if (queriers == 0) baseline_pps = run.ingest_pps;
    const double loss_pct =
        baseline_pps > 0.0
            ? 100.0 * (1.0 - run.ingest_pps / baseline_pps)
            : 0.0;
    const double qps =
        run.ingest_pps > 0.0
            ? static_cast<double>(run.queries) /
                  (static_cast<double>(points) / run.ingest_pps)
            : 0.0;
    std::printf("%zu queriers: ingest %.0f pts/s (loss %.2f%%), "
                "%llu queries (%.1f qps), mean %.0f us, p99 %.0f us\n",
                queriers, run.ingest_pps, loss_pct,
                static_cast<unsigned long long>(run.queries), qps,
                run.query_mean_micros, run.query_p99_micros);
    const auto cell = [](double value) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.6g", value);
      return std::string(buffer);
    };
    csv.AddRow({cell(static_cast<double>(queriers)), cell(run.ingest_pps),
                cell(loss_pct), cell(static_cast<double>(run.queries)),
                cell(qps), cell(run.query_mean_micros),
                cell(run.query_p99_micros),
                std::to_string(umicro::bench::HostCores()),
                umicro::bench::HostCpuModel()});
  }
  if (csv.WriteFile(csv_path)) {
    std::printf("results written to %s\n", csv_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
    return 1;
  }
  return 0;
}
