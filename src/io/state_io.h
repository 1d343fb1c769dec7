// Text serialization of running algorithm/engine state
// (checkpoint/restore across process restarts).
//
// Versioned, line-oriented formats with full double precision:
//   "ustate 1"       -- one UMicro instance (algorithm state only; also
//                       the shard section of a checkpoint).
//   "ucheckpoint 2"  -- a full engine (core::EngineState): algorithm
//                       state(s), snapshot store, stream clock, and
//                       counter/gauge metric cells, in the checksummed
//                       envelope (ChecksummedText). Its "global" section
//                       is written empty; one from an older file is
//                       parsed and discarded.
//   "uclusters 1"    -- a canonical micro-cluster dump.
//
// All parsers treat their input as hostile: truncation, bit flips,
// huge counts, and non-numeric bytes yield std::nullopt -- never a
// crash, CHECK failure, or unbounded allocation (untrusted counts are
// capped before any reserve/resize).
//
// Parsing reads the text in place through one io::TextCursor (no
// stream, no copy of the body), under its token rule: decimal numbers
// with no '+', no sign on a count or id, finite doubles in range, and a
// number ends at whitespace or at the end of the input. The writers
// print doubles with %.17g, which that rule reads back bit for bit.

#ifndef UMICRO_IO_STATE_IO_H_
#define UMICRO_IO_STATE_IO_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/umicro.h"

namespace umicro::io {

class TextCursor;

/// Hard caps on the dimension and cluster counts read from untrusted
/// bytes, shared by every parser here and in io/snapshot_io.h: large
/// enough for any real deployment, small enough that a corrupted count
/// cannot drive an allocation into an OOM before the parse fails.
inline constexpr std::size_t kMaxDims = std::size_t{1} << 16;
inline constexpr std::size_t kMaxClusters = std::size_t{1} << 20;

/// True when a snapshot frame header announcing `count` records of
/// `dims` dimensions is within the caps and its values could fit in
/// `text_bytes` of text (every value takes at least one byte). Parsers
/// check this before reserving the frame's one block, which also keeps
/// count * core::Snapshot::RecordSize(dims) from overflowing.
bool FrameHeaderFits(std::size_t count, std::size_t dims,
                     std::size_t text_bytes);

/// Writes record `i` of `frame` as one text line, full precision:
///   <id> <creation_time> <weight> <last_update> <cf1 x d> <cf2 x d> <ef2 x d>
/// then, when `labels` is given, the suffix `labels <n> [<label> <w>]...`.
/// The record line of "usnap 1" bodies and of checkpoint store frames;
/// with the suffix, the cluster line of "ustate 1" and "uclusters 1".
void AppendRecordLine(std::ostringstream& out, const core::Snapshot& frame,
                      std::size_t i,
                      const stream::LabelHistogram* labels = nullptr);

/// Parses `count` lines written by AppendRecordLine and appends them to
/// `frame` (built for `dims`; the caller checks FrameHeaderFits before
/// reserving it); with `labels` given, every line's label suffix is
/// required and appended to it. False on a malformed, non-finite or
/// negative-weight record or an over-cap label count.
bool ParseRecordLines(TextCursor& in, std::size_t count, std::size_t dims,
                      core::Snapshot* frame,
                      std::vector<stream::LabelHistogram>* labels = nullptr);

/// FNV-1a over `text` -- the integrity checksum every versioned format
/// here embeds in its header (and the fleet manifest reuses per tenant
/// record).
std::uint64_t Fnv1a(std::string_view text);

/// Writes `text` to `path` atomically: temp file + fsync + rename, then
/// a best-effort fsync of the containing directory so the rename itself
/// is durable. A crash at any instant leaves either the old file or the
/// new one at `path`, never a torn mix.
bool WriteTextFileAtomic(const std::string& text, const std::string& path);

/// Reads a whole file; std::nullopt when it cannot be opened.
std::optional<std::string> ReadWholeFile(const std::string& path);

/// The checksummed envelope of "ucheckpoint 2": one header line, then
/// the body,
///   <magic> <version> <fnv1a-of-body as 16 hex digits>
/// Returns the envelope of the body `append_body` writes. The text is
/// built once: the checksum is filled into the fixed-width header in
/// place.
std::string ChecksummedText(
    std::string_view magic, int version,
    const std::function<void(std::ostringstream&)>& append_body);

/// The body of an envelope whose header names `magic` and `version` and
/// whose checksum matches the body; std::nullopt otherwise.
std::optional<std::string_view> ChecksummedBody(std::string_view text,
                                                std::string_view magic,
                                                int version);

/// Serializes a checkpoint (versioned, line-oriented, full double
/// precision; round-trips exactly).
std::string UMicroStateToString(const core::UMicroState& state);

/// Parses text produced by UMicroStateToString. Returns std::nullopt on
/// structural or numeric errors.
std::optional<core::UMicroState> ParseUMicroState(std::string_view text);

/// Canonical text dump of a micro-cluster set ("uclusters 1"): one line
/// per cluster in the codec's full-precision format. Two cluster sets
/// are bitwise equal iff their dumps are byte-equal, which is how the
/// distributed tier proves its merged view matches a single-process run.
std::string MicroClustersToString(const core::LabeledFrame& clusters,
                                  std::size_t dimensions);

/// Atomically writes the canonical dump to `path` (tmp + fsync + rename).
bool WriteMicroClustersFile(const core::LabeledFrame& clusters,
                            std::size_t dimensions, const std::string& path);

/// Serializes a full-engine checkpoint ("ucheckpoint 2").
std::string EngineStateToString(const core::EngineState& state);

/// Parses text produced by EngineStateToString, verifying the header
/// checksum against the body first (any corruption is rejected up
/// front).
std::optional<core::EngineState> ParseEngineState(std::string_view text);

/// Reads and parses an engine checkpoint file.
std::optional<core::EngineState> ReadEngineStateFile(const std::string& path);

}  // namespace umicro::io

#endif  // UMICRO_IO_STATE_IO_H_
