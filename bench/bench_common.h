// Shared helpers for the figure-reproduction benchmarks.
//
// Every bench binary reproduces one figure of the paper's evaluation
// section: it builds the figure's workload, runs UMicro and the CluStream
// baseline, prints the series the paper plots, and dumps a CSV next to
// the binary. Pass --points=N to rescale the stream length (the paper's
// full 600,000-point runs reproduce with --points=600000).

#ifndef UMICRO_BENCH_BENCH_COMMON_H_
#define UMICRO_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/clustream.h"
#include "core/umicro.h"
#include "eval/experiment.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "stream/dataset.h"
#include "stream/perturbation.h"
#include "stream/stream_stats.h"
#include "synth/drift_generator.h"
#include "synth/forest_generator.h"
#include "synth/intrusion_generator.h"
#include "synth/workloads.h"
#include "util/csv_writer.h"
#include "util/flags.h"

namespace umicro::bench {

/// Parses --points=N / --eta=X style flags; returns defaults otherwise.
struct BenchArgs {
  std::size_t points = 200000;
  double eta = 0.5;
  std::size_t num_micro_clusters = 100;
  /// When nonempty, the figure helpers dump the UMicro run's metrics
  /// registry to <stem>.json + <stem>.csv after the run.
  std::string metrics_out;

  static BenchArgs Parse(int argc, char** argv,
                         std::size_t default_points) {
    const util::FlagParser flags(argc, argv);
    BenchArgs args;
    args.points = flags.GetSize("points", default_points);
    args.eta = flags.GetDouble("eta", args.eta);
    args.num_micro_clusters =
        flags.GetSize("nmicro", args.num_micro_clusters);
    args.metrics_out = flags.GetString("metrics-out", "");
    return args;
  }
};

/// Hardware threads visible to this process (>= 1). Recorded into every
/// timing CSV so single-core artifacts (speedup < 1, scheduler
/// time-slicing) are attributable without knowing the original host.
inline std::size_t HostCores() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 0 ? cores : 1;
}

/// CPU model string from /proc/cpuinfo ("unknown" when unavailable).
inline std::string HostCpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    return line.substr(start);
  }
  return "unknown";
}

/// Dumps `registry` to `<stem>.json` + `<stem>.csv`; no-op on empty stem.
inline void MaybeExportMetrics(const obs::MetricsRegistry& registry,
                               const std::string& stem) {
  if (stem.empty()) return;
  obs::MetricsExporter exporter(&registry, stem);
  if (exporter.ExportNow()) {
    std::printf("metrics written to %s.{json,csv}\n",
                exporter.base_path().c_str());
  } else {
    std::fprintf(stderr, "failed to write metrics to %s.{json,csv}\n",
                 exporter.base_path().c_str());
  }
}

/// Figures 2-4: purity vs stream progression, UMicro vs CluStream.
inline void RunPurityProgressionFigure(const std::string& figure,
                                       const std::string& dataset_name,
                                       const stream::Dataset& dataset,
                                       std::size_t num_micro_clusters,
                                       const std::string& csv_path,
                                       const std::string& metrics_out = "") {
  const std::size_t interval = std::max<std::size_t>(1, dataset.size() / 12);

  obs::MetricsRegistry registry;
  core::UMicroOptions uopt;
  uopt.num_micro_clusters = num_micro_clusters;
  core::UMicro umicro_algo(dataset.dimensions(), uopt);
  if (!metrics_out.empty()) umicro_algo.AttachMetrics(&registry);
  const eval::PuritySeries umicro_series =
      eval::RunPurityExperiment(umicro_algo, dataset, interval);

  baseline::CluStreamOptions copt;
  copt.num_micro_clusters = num_micro_clusters;
  baseline::CluStream clustream_algo(dataset.dimensions(), copt);
  const eval::PuritySeries clustream_series =
      eval::RunPurityExperiment(clustream_algo, dataset, interval);

  std::printf("%s: cluster purity vs stream progression (%s, %zu points, "
              "%zu micro-clusters)\n",
              figure.c_str(), dataset_name.c_str(), dataset.size(),
              num_micro_clusters);
  std::printf("%14s %12s %12s %8s\n", "points", "UMicro", "CluStream",
              "gap");
  util::CsvWriter csv({"points", "umicro_purity", "clustream_purity"});
  const std::size_t rows = std::min(umicro_series.samples.size(),
                                    clustream_series.samples.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const auto& u = umicro_series.samples[i];
    const auto& c = clustream_series.samples[i];
    std::printf("%14zu %12.4f %12.4f %+8.4f\n", u.points_processed,
                u.purity, c.purity, u.purity - c.purity);
    csv.AddRow(std::vector<double>{static_cast<double>(u.points_processed),
                                   u.purity, c.purity});
  }
  std::printf("mean purity: UMicro %.4f  CluStream %.4f\n\n",
              umicro_series.MeanPurity(), clustream_series.MeanPurity());
  csv.WriteFile(csv_path);
  MaybeExportMetrics(registry, metrics_out);
}

/// Figures 5-7: purity vs error level eta, UMicro vs CluStream.
template <typename DatasetFactory>
void RunErrorLevelFigure(const std::string& figure,
                         const std::string& dataset_name,
                         DatasetFactory make_dataset, std::size_t points,
                         std::size_t num_micro_clusters,
                         const std::string& csv_path,
                         const std::string& metrics_out = "") {
  const std::vector<double> etas = {0.25, 0.5, 0.75, 1.0,
                                    1.25, 1.5, 1.75, 2.0};
  std::printf("%s: cluster purity vs error level (%s, %zu points per "
              "level, %zu micro-clusters)\n",
              figure.c_str(), dataset_name.c_str(), points,
              num_micro_clusters);
  std::printf("%8s %12s %12s %8s\n", "eta", "UMicro", "CluStream", "gap");
  util::CsvWriter csv({"eta", "umicro_purity", "clustream_purity"});
  const std::size_t interval = std::max<std::size_t>(1, points / 10);
  // One registry across all error levels: the exported dump aggregates
  // the whole sweep (per-eta UMicro runs write into the same cells).
  obs::MetricsRegistry registry;
  for (double eta : etas) {
    const stream::Dataset dataset = make_dataset(points, eta);

    core::UMicroOptions uopt;
    uopt.num_micro_clusters = num_micro_clusters;
    core::UMicro umicro_algo(dataset.dimensions(), uopt);
    if (!metrics_out.empty()) umicro_algo.AttachMetrics(&registry);
    const double umicro_purity =
        eval::RunPurityExperiment(umicro_algo, dataset, interval)
            .MeanPurity();

    baseline::CluStreamOptions copt;
    copt.num_micro_clusters = num_micro_clusters;
    baseline::CluStream clustream_algo(dataset.dimensions(), copt);
    const double clustream_purity =
        eval::RunPurityExperiment(clustream_algo, dataset, interval)
            .MeanPurity();

    std::printf("%8.2f %12.4f %12.4f %+8.4f\n", eta, umicro_purity,
                clustream_purity, umicro_purity - clustream_purity);
    csv.AddRow(std::vector<double>{eta, umicro_purity, clustream_purity});
  }
  std::printf("\n");
  csv.WriteFile(csv_path);
  MaybeExportMetrics(registry, metrics_out);
}

/// Figures 8-10: points/sec vs progression; CluStream is the paper's
/// "optimistic baseline" (smaller input, simpler computations).
inline void RunThroughputFigure(const std::string& figure,
                                const std::string& dataset_name,
                                const stream::Dataset& dataset,
                                std::size_t num_micro_clusters,
                                const std::string& csv_path,
                                const std::string& metrics_out = "") {
  const std::size_t interval = std::max<std::size_t>(1, dataset.size() / 10);

  obs::MetricsRegistry registry;
  core::UMicroOptions uopt;
  uopt.num_micro_clusters = num_micro_clusters;
  core::UMicro umicro_algo(dataset.dimensions(), uopt);
  if (!metrics_out.empty()) umicro_algo.AttachMetrics(&registry);
  const eval::ThroughputSeries umicro_series =
      eval::RunThroughputExperiment(umicro_algo, dataset, interval);

  baseline::CluStreamOptions copt;
  copt.num_micro_clusters = num_micro_clusters;
  baseline::CluStream clustream_algo(dataset.dimensions(), copt);
  const eval::ThroughputSeries clustream_series =
      eval::RunThroughputExperiment(clustream_algo, dataset, interval);

  std::printf("%s: processing rate vs stream progression (%s, %zu points, "
              "%zu micro-clusters)\n",
              figure.c_str(), dataset_name.c_str(), dataset.size(),
              num_micro_clusters);
  std::printf("%14s %14s %20s %8s\n", "points", "UMicro pts/s",
              "CluStream(opt) pts/s", "ratio");
  util::CsvWriter csv({"points", "umicro_pps", "clustream_pps"});
  const std::size_t rows = std::min(umicro_series.samples.size(),
                                    clustream_series.samples.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const auto& u = umicro_series.samples[i];
    const auto& c = clustream_series.samples[i];
    const double ratio =
        c.points_per_second > 0.0 ? u.points_per_second / c.points_per_second
                                  : 0.0;
    std::printf("%14zu %14.0f %20.0f %8.2f\n", u.points_processed,
                u.points_per_second, c.points_per_second, ratio);
    csv.AddRow(std::vector<double>{static_cast<double>(u.points_processed),
                                   u.points_per_second,
                                   c.points_per_second});
  }
  std::printf(
      "overall: UMicro %.0f pts/s, CluStream %.0f pts/s (UMicro at %.0f%% "
      "of the optimistic baseline)\n\n",
      umicro_series.overall_points_per_second,
      clustream_series.overall_points_per_second,
      100.0 * umicro_series.overall_points_per_second /
          clustream_series.overall_points_per_second);
  csv.WriteFile(csv_path);
  MaybeExportMetrics(registry, metrics_out);
}

}  // namespace umicro::bench

#endif  // UMICRO_BENCH_BENCH_COMMON_H_
