// Kernel-tier speedup sweep: scalar vs avx2 at the paper's
// d=20 / q=100 configuration.
//
//   bench_kernel_speedup [--dims=D] [--nmicro=Q] [--trials=K]
//                        [--csv=PATH]
//
// For every batch kernel of src/kernels and every tier the host CPU
// supports, the sweep times the kernel directly (best of K trials, each
// calibrated to run long enough for a stable clock read) and reports
// nanoseconds per operation plus the speedup over the scalar reference
// tier. One operation = one point scanned against all q clusters (votes
// and distances), one full q*(q-1)/2 closest-pair search, one fused
// point fold, or one whole-table decay pass.
//
// The CSV (default kernel_speedup.csv) is the artifact behind the
// vectorization claim in EXPERIMENTS.md: the avx2 rows of the scan
// kernels must show >= 2x over their scalar rows at d=20 / q=100.

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "kernels/cluster_table.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "stream/point.h"
#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace {

using umicro::kernels::Backend;
using umicro::kernels::ClusterTable;
using umicro::kernels::PointContext;
using umicro::stream::UncertainPoint;

UncertainPoint MakePoint(umicro::util::Rng& rng, std::size_t dims) {
  std::vector<double> values(dims);
  std::vector<double> errors(dims);
  for (std::size_t j = 0; j < dims; ++j) {
    values[j] = rng.Uniform(-1.0, 1.0);
    errors[j] = rng.Uniform(0.0, 0.3);
  }
  return UncertainPoint(std::move(values), std::move(errors), 0.0);
}

ClusterTable MakeTable(umicro::util::Rng& rng, std::size_t dims,
                       std::size_t q) {
  ClusterTable table(dims);
  table.Reserve(q);
  for (std::size_t i = 0; i < q; ++i) {
    const UncertainPoint seed_point = MakePoint(rng, dims);
    table.PushPointRow(seed_point.values.data(), seed_point.errors.data(),
                       1.0);
    for (int p = 1; p < 50; ++p) {
      const UncertainPoint point = MakePoint(rng, dims);
      table.AddPoint(i, point.values.data(), point.errors.data(), 1.0);
    }
  }
  return table;
}

/// Best-of-`trials` nanoseconds per call of `op`. Each trial first
/// calibrates an iteration count that keeps the timed region above
/// ~20 ms, so the steady_clock read is amortized into the noise.
template <typename Op>
double TimeNanos(std::size_t trials, Op&& op) {
  // Calibrate: grow the batch until one timed run exceeds 20 ms.
  std::size_t batch = 1;
  umicro::util::Stopwatch calibrate;
  for (;;) {
    calibrate.Reset();
    for (std::size_t i = 0; i < batch; ++i) op();
    if (calibrate.ElapsedSeconds() >= 0.02 || batch >= (1u << 24)) break;
    batch *= 4;
  }
  double best = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    umicro::util::Stopwatch timer;
    for (std::size_t i = 0; i < batch; ++i) op();
    const double nanos =
        timer.ElapsedSeconds() * 1e9 / static_cast<double>(batch);
    if (t == 0 || nanos < best) best = nanos;
  }
  return best;
}

volatile double g_sink = 0.0;

}  // namespace

int main(int argc, char** argv) {
  const umicro::util::FlagParser flags(argc, argv);
  const std::size_t dims = flags.GetSize("dims", 20);
  const std::size_t q = flags.GetSize("nmicro", 100);
  const std::size_t trials = flags.GetSize("trials", 5);
  const std::string csv_path =
      flags.GetString("csv", "kernel_speedup.csv");

  umicro::util::Rng rng(2008);
  const ClusterTable table = MakeTable(rng, dims, q);
  const UncertainPoint x = MakePoint(rng, dims);
  const std::vector<double> inv_scaled(dims, 1.0 / 1.5);

  PointContext ctx;
  ctx.Prepare(table, x.values.data(), x.errors.data(), inv_scaled.data());
  std::vector<double> out(q);

  const std::span<const Backend> tiers = umicro::kernels::SupportedBackends();

  struct KernelRow {
    const char* kernel;
    std::vector<double> nanos;  // parallel to `tiers`
  };
  std::vector<KernelRow> table_rows;

  auto sweep = [&](const char* name, auto&& make_op) {
    KernelRow row;
    row.kernel = name;
    for (Backend tier : tiers) {
      row.nanos.push_back(TimeNanos(trials, make_op(tier)));
    }
    table_rows.push_back(std::move(row));
  };

  sweep("batch_votes", [&](Backend tier) {
    return [&, tier] {
      umicro::kernels::BatchDimensionVotes(table, ctx, true, tier,
                                           out.data());
      g_sink = out[q - 1];
    };
  });
  sweep("batch_distances", [&](Backend tier) {
    return [&, tier] {
      umicro::kernels::BatchSquaredDistances(
          table, ctx, umicro::kernels::DistanceKind::kExpected, tier,
          out.data());
      g_sink = out[q - 1];
    };
  });
  sweep("closest_pair", [&](Backend tier) {
    return [&, tier] {
      std::size_t a = 0;
      std::size_t b = 0;
      double d2 = 0.0;
      umicro::kernels::ClosestCentroidPair(table, tier, &a, &b, &d2);
      g_sink = d2;
    };
  });
  // Update kernels mutate, so each tier's op owns a working copy.
  auto working_copy = [&table](Backend tier) {
    ClusterTable copy = table;
    copy.set_backend(tier);
    return copy;
  };
  sweep("fused_add_point", [&](Backend tier) {
    return [mutable_table = working_copy(tier), &x, q,
            row = std::size_t{0}]() mutable {
      mutable_table.AddPoint(row, x.values.data(), x.errors.data(), 1.0);
      row = (row + 1) % q;
    };
  });
  sweep("decay_scale_all", [&](Backend tier) {
    return [mutable_table = working_copy(tier)]() mutable {
      mutable_table.ScaleAll(0.999999);
    };
  });

  std::printf("kernel-tier speedups at d=%zu, q=%zu (best of %zu trials; "
              "detected tier: %s)\n",
              dims, q, trials,
              umicro::kernels::BackendName(
                  umicro::kernels::DetectBackend()));
  std::printf("%18s %10s %14s %12s\n", "kernel", "backend", "ns_per_op",
              "vs_scalar");
  umicro::util::CsvWriter csv(
      {"kernel", "dims", "nmicro", "backend", "ns_per_op",
       "speedup_vs_scalar"});
  for (const KernelRow& row : table_rows) {
    const double scalar_nanos = row.nanos[0];
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      const double speedup =
          row.nanos[t] > 0.0 ? scalar_nanos / row.nanos[t] : 0.0;
      const char* tier_name = umicro::kernels::BackendName(tiers[t]);
      std::printf("%18s %10s %14.1f %11.2fx\n", row.kernel, tier_name,
                  row.nanos[t], speedup);
      char nanos_text[32];
      char speedup_text[32];
      std::snprintf(nanos_text, sizeof(nanos_text), "%.1f", row.nanos[t]);
      std::snprintf(speedup_text, sizeof(speedup_text), "%.2f", speedup);
      csv.AddRow({row.kernel, std::to_string(dims), std::to_string(q),
                  tier_name, nanos_text, speedup_text});
    }
  }
  if (!csv.WriteFile(csv_path)) {
    std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
    return 1;
  }
  std::printf("csv written to %s\n", csv_path.c_str());
  return 0;
}
