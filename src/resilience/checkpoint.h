// Crash-safe checkpointing and recovery of a running ClusteringEngine.
//
// The ECF statistics are additive with no hidden process state
// (Property 2.1), which makes checkpoint/replay exact: restore the
// newest checkpoint into an identically configured engine, replay the
// stream from points_processed() onward, and the result is bit-identical
// to the uninterrupted run -- no point double-counted, none lost. The
// machinery here supplies the durable half of that guarantee:
//
//   CheckpointManager  -- writes "checkpoint-<seq>.uckpt" files into a
//                         directory at a points/seconds cadence, each
//                         atomically (temp + fsync + rename) with a
//                         checksummed header, sequence numbers strictly
//                         increasing across process restarts;
//   RecoverOrCreateEngine -- builds a fresh engine via a caller factory,
//                         then restores the newest checkpoint that is
//                         both uncorrupted (checksum + parse) and
//                         compatible (kind/dimensions), skipping and
//                         counting any that are not.

#ifndef UMICRO_RESILIENCE_CHECKPOINT_H_
#define UMICRO_RESILIENCE_CHECKPOINT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/engine.h"

namespace umicro::resilience {

/// Writes versioned engine checkpoints into one directory.
///
/// Sequence numbers continue from the highest checkpoint already in the
/// directory, so filenames stay strictly increasing across restarts and
/// recovery can always pick "the newest" lexicographically.
class CheckpointManager {
 public:
  /// Uses `dir` (created if missing) under `config`'s cadence; after
  /// each successful write only the newest `config.keep_last` files are
  /// kept (0 = keep everything).
  CheckpointManager(std::string dir, core::CheckpointConfig config);

  /// Writes a checkpoint when the cadence says one is due. Returns true
  /// when a checkpoint was written, false when none was due or the
  /// write failed (check write_failures() to distinguish).
  bool MaybeCheckpoint(core::ClusteringEngine& engine);

  /// Writes a checkpoint unconditionally (flushes the engine first).
  bool CheckpointNow(core::ClusteringEngine& engine);

  /// Checkpoints successfully written by this manager.
  std::size_t checkpoints_written() const { return checkpoints_written_; }

  /// Failed write attempts (I/O errors, or the "checkpoint.write_fail"
  /// failpoint).
  std::size_t write_failures() const { return write_failures_; }

  /// Path of the newest checkpoint written by this manager; empty
  /// before the first successful write.
  const std::string& last_path() const { return last_path_; }

  /// Checkpoint directory.
  const std::string& dir() const { return dir_; }

 private:
  void PruneOld();

  const std::string dir_;
  const core::CheckpointConfig config_;
  std::uint64_t next_seq_ = 1;
  std::size_t checkpoints_written_ = 0;
  std::size_t write_failures_ = 0;
  std::size_t last_checkpoint_points_ = 0;
  std::chrono::steady_clock::time_point last_checkpoint_time_;
  std::string last_path_;
};

/// Checkpoint files in `dir`, newest (highest sequence) first.
std::vector<std::string> ListCheckpointFiles(const std::string& dir);

/// Result of RecoverOrCreateEngine.
struct RecoveredEngine {
  /// The engine -- freshly constructed, and restored when `recovered`.
  std::unique_ptr<core::ClusteringEngine> engine;
  /// True when a checkpoint was restored into the engine.
  bool recovered = false;
  /// Points already processed at the restored checkpoint (replay the
  /// stream from this offset); 0 when not recovered.
  std::uint64_t resume_from = 0;
  /// Checkpoint files that had to be skipped (corrupt, unparsable, or
  /// incompatible with the engine the factory builds).
  std::size_t corrupt_skipped = 0;
  /// Path of the restored checkpoint; empty when not recovered.
  std::string checkpoint_path;
};

/// Builds an engine with `factory` and restores the newest usable
/// checkpoint from `checkpoint_dir` into it. A missing or empty
/// directory simply yields a fresh engine (`recovered` false); corrupt
/// or incompatible checkpoints are skipped (counted) in favor of older
/// ones. The factory must produce the same configuration the
/// checkpoints were written under for recovery to be exact.
RecoveredEngine RecoverOrCreateEngine(
    const std::string& checkpoint_dir,
    const std::function<std::unique_ptr<core::ClusteringEngine>()>& factory);

}  // namespace umicro::resilience

#endif  // UMICRO_RESILIENCE_CHECKPOINT_H_
