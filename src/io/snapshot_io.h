// Text serialization of micro-cluster snapshots.
//
// Snapshots are what the pyramidal time frame persists; in a production
// deployment they go to disk so historical horizons survive restarts.
// The format is a line-oriented, versioned text encoding with full
// double precision (round-trips exactly via %.17g).

#ifndef UMICRO_IO_SNAPSHOT_IO_H_
#define UMICRO_IO_SNAPSHOT_IO_H_

#include <optional>
#include <string>
#include <string_view>

#include "core/snapshot.h"

namespace umicro::io {

/// Serializes a snapshot:
///   usnap 1
///   time <t>
///   dims <d> clusters <k>
///   <id> <creation_time> <weight> <last_update> <cf1 x d> <cf2 x d> <ef2 x d>
std::string SnapshotToString(const core::Snapshot& snapshot);

/// Parses text produced by SnapshotToString. Returns std::nullopt on any
/// structural or numeric error.
std::optional<core::Snapshot> ParseSnapshot(std::string_view text);

/// Writes a snapshot to `path` atomically (WriteTextFileAtomic).
/// Returns false on I/O failure.
bool WriteSnapshotFile(const core::Snapshot& snapshot,
                       const std::string& path);

/// Reads a snapshot from `path`.
std::optional<core::Snapshot> ReadSnapshotFile(const std::string& path);

}  // namespace umicro::io

#endif  // UMICRO_IO_SNAPSHOT_IO_H_
