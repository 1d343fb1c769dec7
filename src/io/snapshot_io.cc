#include "io/snapshot_io.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "io/state_io.h"
#include "io/text_cursor.h"

namespace umicro::io {

namespace {
constexpr int kFormatVersion = 1;

void AppendDouble(std::ostringstream& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out << buffer;
}

}  // namespace

std::string SnapshotToString(const core::Snapshot& snapshot) {
  std::ostringstream out;
  out << "usnap " << kFormatVersion << "\n";
  out << "time ";
  AppendDouble(out, snapshot.time);
  out << "\n";
  out << "dims " << snapshot.dims() << " clusters " << snapshot.size()
      << "\n";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    AppendRecordLine(out, snapshot, i);
  }
  return std::move(out).str();
}

std::optional<core::Snapshot> ParseSnapshot(std::string_view text) {
  TextCursor in(text);
  int version = 0;
  if (!in.Keyword("usnap") || !in.Number(&version) ||
      version != kFormatVersion) {
    return std::nullopt;
  }

  double time = 0.0;
  if (!in.Keyword("time") || !in.Number(&time)) return std::nullopt;

  std::size_t dims = 0;
  std::size_t count = 0;
  if (!in.Keyword("dims") || !in.Number(&dims) || !in.Keyword("clusters") ||
      !in.Number(&count)) {
    return std::nullopt;
  }
  if (count > 0 && dims == 0) return std::nullopt;
  // The frame is one block sized by the header: refuse a header the
  // text cannot back before allocating it.
  if (!FrameHeaderFits(count, dims, text.size())) return std::nullopt;

  core::Snapshot snapshot(time, dims, count);
  if (!ParseRecordLines(in, count, dims, &snapshot)) return std::nullopt;
  return snapshot;
}

bool WriteSnapshotFile(const core::Snapshot& snapshot,
                       const std::string& path) {
  return WriteTextFileAtomic(SnapshotToString(snapshot), path);
}

std::optional<core::Snapshot> ReadSnapshotFile(const std::string& path) {
  const std::optional<std::string> text = ReadWholeFile(path);
  if (!text.has_value()) return std::nullopt;
  return ParseSnapshot(*text);
}

}  // namespace umicro::io
