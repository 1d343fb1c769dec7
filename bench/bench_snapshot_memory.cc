// Snapshot-store memory sweep: fleet-wide store bytes and process RSS
// for the full / delta store encodings at 1k/10k/100k tenants.
//
//   bench_snapshot_memory [--tenants=N(max)] [--points-per-tenant=P]
//                         [--nmicro=Q] [--dims=D] [--csv=PATH]
//
// The workload is the delta-friendly shape: many well-separated centers
// visited in temporal blocks, so consecutive snapshot windows touch only
// one or two of a tenant's micro-clusters and warm delta frames carry a
// small changed-set. Decay is 0 -- with decay > 0 every statistic is
// rescaled between snapshots, no cluster is bit-stable, and delta frames
// cannot shrink (docs/snapshots.md).
//
// Reported per (mode, tenants) cell: summed per-tenant store bytes,
// frame counts, bytes/frame, the ratio vs the full store at the same
// tenant count (the acceptance bar: >= 2x reduction at 10k tenants),
// and the RSS the fleet added while alive.

#include "bench/bench_common.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/config.h"
#include "core/snapshot.h"
#include "fleet/engine_fleet.h"

namespace {

using umicro::core::SnapshotStoreMode;

// Many centers, visited in blocks: higher pyramid orders hold frames
// whole blocks apart, and only the centers visited in between differ
// from the parent frame -- with few centers those gaps would touch
// every cluster and high-order deltas would not shrink.
constexpr std::size_t kBlock = 16;    // points per center visit
constexpr std::size_t kCenters = 24;  // visited round-robin, spaced 100

/// Blocked-center drift stream: block b of `kBlock` points sits near
/// center b % kCenters, so one snapshot window touches 1-2 clusters.
umicro::stream::Dataset BlockedStream(std::size_t points, std::size_t dims,
                                      std::uint64_t seed) {
  umicro::util::Rng rng(seed);
  umicro::stream::Dataset dataset(dims);
  for (std::size_t i = 0; i < points; ++i) {
    const double center =
        static_cast<double>((i / kBlock) % kCenters) * 100.0;
    std::vector<double> values(dims);
    std::vector<double> errors(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      values[d] = center + static_cast<double>(d) +
                  rng.Gaussian(0.0, 0.5);
      errors[d] = rng.Uniform(0.1, 0.3);
    }
    dataset.Add(umicro::stream::UncertainPoint(
        std::move(values), std::move(errors), static_cast<double>(i + 1)));
  }
  return dataset;
}

/// Resident set size in KiB from /proc/self/status (0 if unreadable).
std::size_t RssKb() {
#if defined(__GLIBC__)
  malloc_trim(0);  // return freed arenas so RSS tracks live state
#endif
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    std::size_t kb = 0;
    std::sscanf(line.c_str(), "VmRSS: %zu kB", &kb);
    return kb;
  }
  return 0;
}

const char* ModeName(SnapshotStoreMode mode) {
  switch (mode) {
    case SnapshotStoreMode::kFull: return "full";
    case SnapshotStoreMode::kDelta: return "delta";
  }
  return "?";
}

struct FleetCell {
  std::size_t store_bytes = 0;
  std::size_t frames = 0;
  std::size_t rss_delta_kb = 0;
};

FleetCell RunFleet(SnapshotStoreMode mode, std::size_t tenants,
                   const umicro::stream::Dataset& per_tenant,
                   std::size_t nmicro) {
  const std::size_t rss_before = RssKb();
  FleetCell cell;
  {
    umicro::core::EngineConfig config;
    config.umicro.num_micro_clusters = nmicro;
    config.umicro.decay_lambda = 0.0;
    config.fleet.tenants = tenants;
    config.fleet.workers = 2;
    config.fleet.snapshot.snapshot_every = 16;
    config.fleet.snapshot.pyramid_alpha = 2;
    config.fleet.snapshot.pyramid_l = 2;
    config.fleet.snapshot.tiering.mode = mode;
    umicro::fleet::EngineFleet fleet(per_tenant.dimensions(), config);

    // Tenant-major ingest: each tenant replays the same template stream
    // (its own clock), which keeps generation off the measured path and
    // makes every tenant's store byte-identical in expectation.
    for (std::size_t t = 0; t < tenants; ++t) {
      for (const auto& point : per_tenant.points()) {
        fleet.Ingest(t, point);
      }
    }
    fleet.Flush();

    const std::size_t rss_live = RssKb();
    cell.rss_delta_kb = rss_live > rss_before ? rss_live - rss_before : 0;
    for (std::uint64_t t = 0; t < tenants; ++t) {
      const umicro::core::SnapshotTierStats stats =
          fleet.EnsureTenant(t).core().store().TierStats();
      cell.store_bytes += stats.approx_bytes;
      cell.frames += stats.frames;
    }
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const umicro::util::FlagParser flags(argc, argv);
  const std::size_t max_tenants = flags.GetSize("tenants", 100000);
  const std::size_t points_per_tenant =
      flags.GetSize("points-per-tenant", 384);
  const std::size_t nmicro = flags.GetSize("nmicro", 32);
  const std::size_t dims = flags.GetSize("dims", 8);
  const std::string csv_path =
      flags.GetString("csv", "snapshot_memory.csv");

  umicro::util::CsvWriter csv(
      {"mode", "tenants", "points_per_tenant", "store_bytes", "frames",
       "bytes_per_frame", "vs_full_ratio", "rss_delta_kb"});

  const umicro::stream::Dataset per_tenant =
      BlockedStream(points_per_tenant, dims, 42);

  std::printf("snapshot-store memory sweep: %zu pts/tenant x %zud, q=%zu, "
              "every=16, alpha=2 l=2\n\n",
              points_per_tenant, dims, nmicro);
  std::printf("%8s %8s %14s %8s %12s %10s %12s\n", "tenants", "mode",
              "store-bytes", "frames", "bytes/frame", "vs-full",
              "rss-delta-kb");

  for (const std::size_t tenants : {1000u, 10000u, 100000u}) {
    if (tenants > max_tenants) continue;
    std::size_t full_bytes = 0;
    for (const SnapshotStoreMode mode :
         {SnapshotStoreMode::kFull, SnapshotStoreMode::kDelta}) {
      const FleetCell cell = RunFleet(mode, tenants, per_tenant, nmicro);
      if (mode == SnapshotStoreMode::kFull) full_bytes = cell.store_bytes;
      const double bytes_per_frame =
          cell.frames > 0
              ? static_cast<double>(cell.store_bytes) / cell.frames
              : 0.0;
      const double vs_full =
          full_bytes > 0
              ? static_cast<double>(cell.store_bytes) / full_bytes
              : 1.0;
      std::printf("%8zu %8s %14zu %8zu %12.1f %10.3f %12zu\n", tenants,
                  ModeName(mode), cell.store_bytes, cell.frames,
                  bytes_per_frame, vs_full, cell.rss_delta_kb);
      csv.AddRow({ModeName(mode), std::to_string(tenants),
                  std::to_string(points_per_tenant),
                  std::to_string(cell.store_bytes),
                  std::to_string(cell.frames),
                  std::to_string(bytes_per_frame),
                  std::to_string(vs_full),
                  std::to_string(cell.rss_delta_kb)});
    }
    std::printf("\n");
  }

  csv.WriteFile(csv_path);
  std::printf("\nwrote %s\n", csv_path.c_str());
  return 0;
}
