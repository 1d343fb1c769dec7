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

/// Serializes a cold-frame spill: the "usnap 1" text in the checksummed
/// envelope of io/state_io.h (ChecksummedText),
///   usnapf 1 <fnv1a-of-body-hex>
///   <usnap 1 body>
/// so a truncated or bit-flipped spill file is detected at load time
/// (the tiered store then skips the frame instead of serving garbage).
std::string SpillFrameToString(const core::Snapshot& snapshot);

/// Parses text produced by SpillFrameToString; nullopt on any structural
/// error or checksum mismatch.
std::optional<core::Snapshot> ParseSpillFrame(std::string_view text);

/// Writes a spill frame atomically (temp + fsync + rename, the
/// checkpoint discipline: a crash mid-spill leaves no torn file).
bool WriteSpillFrameFile(const core::Snapshot& snapshot,
                         const std::string& path);

/// Reads and verifies a spill frame.
std::optional<core::Snapshot> ReadSpillFrameFile(const std::string& path);

/// The spill codec handed to core::SnapshotStore (core cannot depend on
/// io; the engine wiring injects this through SnapshotTiering::codec).
core::SnapshotSpillCodec MakeSnapshotSpillCodec();

}  // namespace umicro::io

#endif  // UMICRO_IO_SNAPSHOT_IO_H_
