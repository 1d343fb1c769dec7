// Incremental, partitioned fleet checkpointing with a checksummed
// manifest -- and the fleet-aware counterpart of RecoverOrCreateEngine.
//
// One monolithic checkpoint per pass does not scale to a fleet: with
// 10^5 tenants of which a handful moved, rewriting every tenant's state
// is almost all wasted I/O. A checkpoint pass here writes one
// "ucheckpoint 2" file per DIRTY tenant only (a tenant is dirty when
// its processed-point count changed since the last pass; ECF additivity
// makes the count a complete dirtiness signal -- no points, no state
// change), then one manifest naming, for every tenant, the file that
// holds its current state:
//
//   tenant-<id>-<seq>.uckpt   one tenant's engine state (the same
//                             atomic temp+fsync+rename, checksummed
//                             "ucheckpoint 2" format single engines
//                             use);
//   manifest-<seq>.ufm        the pass manifest ("ufleetmanifest 1"),
//                             an io::CheckpointSeries: sequence,
//                             cadence and keep_last pruning follow the
//                             engine checkpoints' protocol:
//
//     ufleetmanifest 1 <fnv1a-of-body>
//     seq <seq>
//     dimensions <d>
//     tenants <count>
//     T <tenant-id> <filename> <points> <fnv1a-of-file-text>
//     ... one T line per tenant, ascending by id ...
//
// Clean tenants' T lines point at files written by earlier passes, so a
// manifest is a complete fleet image even though the pass wrote only
// the dirty subset. Every write is atomic and old manifests plus the
// files they reference stay on disk until pruned (newest `keep_last`
// manifests survive; tenant files are removed only once no surviving
// manifest references them), so a crash at ANY instant leaves the
// previous pass fully recoverable.
//
// RecoverOrCreateFleet walks manifests newest-first, takes the first
// one whose header checksum validates, and restores tenant by tenant --
// a tenant whose file is missing, corrupt (manifest checksum, file
// checksum, or parse), or incompatible is recreated EMPTY and counted
// in corrupt_skipped instead of failing the whole fleet.

#ifndef UMICRO_FLEET_FLEET_CHECKPOINT_H_
#define UMICRO_FLEET_FLEET_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "fleet/engine_fleet.h"
#include "io/checkpoint_series.h"
#include "obs/metrics.h"

namespace umicro::fleet {

/// Writes incremental fleet checkpoints into one directory.
class FleetCheckpointer {
 public:
  /// Uses `dir` (created if missing) under config's cadence/retention.
  /// Seeds itself from the newest valid manifest already in `dir`, so
  /// after a restart the first pass rewrites only tenants that moved
  /// since that manifest (not the whole fleet). `metrics` (optional,
  /// usually the fleet's registry) receives the fleet.checkpoint.*
  /// instruments, including the dirty-ratio gauge.
  FleetCheckpointer(std::string dir, core::CheckpointConfig config,
                    obs::MetricsRegistry* metrics = nullptr);

  /// Runs a pass when the cadence (points/seconds) says one is due.
  bool MaybeCheckpoint(EngineFleet& fleet);

  /// Runs a pass unconditionally: flushes the fleet, writes every dirty
  /// tenant's state, then the manifest. False when any write failed
  /// (the previous pass stays intact and authoritative).
  bool CheckpointNow(EngineFleet& fleet);

  /// Successful passes so far.
  std::size_t checkpoints_written() const { return checkpoints_written_; }

  /// Failed write attempts.
  std::size_t write_failures() const { return write_failures_; }

  /// Dirty tenants / total tenants of the last successful pass
  /// (0 before any pass; 1.0 = full rewrite).
  double last_dirty_ratio() const { return last_dirty_ratio_; }

  /// Tenants rewritten by the last successful pass.
  std::size_t last_dirty_count() const { return last_dirty_count_; }

  /// Sequence of the last successful pass (0 before any).
  std::uint64_t last_seq() const { return last_seq_; }

  /// Checkpoint directory.
  const std::string& dir() const { return series_.dir(); }

 private:
  struct TenantRecord {
    std::string file;
    std::uint64_t points = 0;
    std::uint64_t checksum = 0;
  };

  /// Removes the tenant files no surviving manifest references.
  void SweepTenantFiles();

  /// The manifest series: names, sequence, cadence and retention.
  io::CheckpointSeries series_;
  obs::Gauge* dirty_ratio_gauge_ = nullptr;
  obs::Counter* passes_ = nullptr;
  obs::Counter* tenants_written_ = nullptr;
  obs::Counter* failures_ = nullptr;

  /// The last manifest's image: tenant -> its current on-disk record.
  std::map<std::uint64_t, TenantRecord> latest_;
  std::size_t checkpoints_written_ = 0;
  std::size_t write_failures_ = 0;
  double last_dirty_ratio_ = 0.0;
  std::size_t last_dirty_count_ = 0;
  std::uint64_t last_seq_ = 0;
};

/// Manifest files in `dir`, newest (highest sequence) first.
std::vector<std::string> ListFleetManifestFiles(const std::string& dir);

/// Result of RecoverOrCreateFleet.
struct RecoveredFleet {
  /// The fleet -- freshly constructed, with recovered tenants restored.
  std::unique_ptr<EngineFleet> fleet;
  /// True when a manifest was found and applied (even partially).
  bool recovered = false;
  /// Sequence of the manifest applied; 0 when none.
  std::uint64_t manifest_seq = 0;
  /// Tenants restored from their checkpoint files.
  std::size_t tenants_restored = 0;
  /// Tenant records skipped (missing/corrupt/incompatible file); those
  /// tenants exist but start empty.
  std::size_t corrupt_skipped = 0;
  /// Manifests that failed validation and were passed over for older
  /// ones.
  std::size_t manifests_skipped = 0;
  /// Per-tenant replay offsets: points already processed at the
  /// checkpoint (absent or 0 = replay that tenant from the start).
  std::map<std::uint64_t, std::uint64_t> resume_from;
};

/// Builds a fleet for `dimensions`/`config` and restores the newest
/// valid manifest from `checkpoint_dir` into it. A missing or empty
/// directory yields a fresh fleet (`recovered` false); corrupt tenant
/// records are skipped (counted) without failing the fleet.
RecoveredFleet RecoverOrCreateFleet(const std::string& checkpoint_dir,
                                    std::size_t dimensions,
                                    const core::EngineConfig& config);

}  // namespace umicro::fleet

#endif  // UMICRO_FLEET_FLEET_CHECKPOINT_H_
