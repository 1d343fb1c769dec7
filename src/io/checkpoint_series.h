// Numbered checkpoint files in one directory: the directory protocol
// every checkpointer follows.
//
// A series is the files "<prefix><seq><suffix>" of one directory, with
// `seq` a decimal sequence number written with at least eight digits
// ("checkpoint-00000007.uckpt", "manifest-00000007.ufm"). The series
//   * continues its sequence past the highest file already on disk, so
//     "newest wins" holds across process restarts;
//   * writes at a points/seconds cadence that restarts after every
//     attempt, failed or not (a failing disk is not retried on every
//     point);
//   * after each successful write keeps only the newest `keep_last`
//     files (0 keeps everything).
// Names of any other form -- an empty, signed or non-numeric sequence,
// one past 64 bits, or the "<name>.tmp" of an unfinished atomic write
// -- are not part of the series: listing, recovery and pruning ignore
// them.

#ifndef UMICRO_IO_CHECKPOINT_SERIES_H_
#define UMICRO_IO_CHECKPOINT_SERIES_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"

namespace umicro::io {

/// Entry names of `dir`; empty when it cannot be opened.
std::vector<std::string> DirectoryEntries(const std::string& dir);

/// Paths ("<dir>/<name>") of the series files in `dir`, newest (highest
/// sequence) first.
std::vector<std::string> ListSeries(const std::string& dir,
                                    std::string_view prefix,
                                    std::string_view suffix);

/// Writes one engine-state checkpoint file atomically (see
/// WriteTextFileAtomic). False on I/O failure or when the
/// "checkpoint.write_fail" failpoint fires.
bool WriteCheckpointFile(const std::string& text, const std::string& path);

/// The writer side of one series.
class CheckpointSeries {
 public:
  /// Uses `dir` (created if missing) under `config`'s cadence and
  /// retention.
  CheckpointSeries(std::string dir, std::string prefix, std::string suffix,
                   core::CheckpointConfig config);

  /// True when a write is due with `points` processed: every_points
  /// more than at the last attempt, or every_seconds since it.
  bool Due(std::uint64_t points) const;

  /// One write attempt. `write(seq, path)` writes whatever accompanies
  /// the series file and, last, the series file itself at `path`. The
  /// cadence restarts at `points` either way; on success the sequence
  /// advances and files beyond keep_last are removed, oldest first.
  /// Returns what `write` returned.
  bool Write(std::uint64_t points,
             const std::function<bool(std::uint64_t seq,
                                      const std::string& path)>& write);

  /// Series files in the directory, newest first.
  std::vector<std::string> List() const;

  /// The series directory.
  const std::string& dir() const { return dir_; }

  /// Files kept after each write (0 = all).
  std::size_t keep_last() const { return config_.keep_last; }

 private:
  const std::string dir_;
  const std::string prefix_;
  const std::string suffix_;
  const core::CheckpointConfig config_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t last_points_ = 0;
  std::chrono::steady_clock::time_point last_time_;
};

}  // namespace umicro::io

#endif  // UMICRO_IO_CHECKPOINT_SERIES_H_
