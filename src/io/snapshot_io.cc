#include "io/snapshot_io.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "io/state_io.h"

namespace umicro::io {

namespace {
constexpr int kFormatVersion = 1;
constexpr int kSpillFormatVersion = 1;

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
  const std::size_t dims = snapshot.dims();
  out << "dims " << dims << " clusters " << snapshot.size() << "\n";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    AppendRecordLine(out, snapshot, i);
  }
  return out.str();
}

std::optional<core::Snapshot> ParseSnapshot(const std::string& text) {
  std::istringstream in(text);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "usnap" ||
      version != kFormatVersion) {
    return std::nullopt;
  }

  double time = 0.0;
  std::string key;
  if (!(in >> key >> time) || key != "time") return std::nullopt;

  std::size_t dims = 0;
  std::size_t count = 0;
  std::string clusters_key;
  if (!(in >> key >> dims >> clusters_key >> count) || key != "dims" ||
      clusters_key != "clusters") {
    return std::nullopt;
  }
  if (count > 0 && dims == 0) return std::nullopt;
  // The frame is one block sized by the header: refuse a header the
  // text cannot back before allocating it.
  if (!FrameHeaderFits(count, dims, text.size())) return std::nullopt;

  core::Snapshot snapshot(time, dims, count);
  for (std::size_t c = 0; c < count; ++c) {
    if (!ParseRecordLine(in, dims, &snapshot)) return std::nullopt;
  }
  return snapshot;
}

bool WriteSnapshotFile(const core::Snapshot& snapshot,
                       const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) return false;
  file << SnapshotToString(snapshot);
  return file.good();
}

std::optional<core::Snapshot> ReadSnapshotFile(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) return std::nullopt;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseSnapshot(buffer.str());
}

std::string SpillFrameToString(const core::Snapshot& snapshot) {
  const std::string body = SnapshotToString(snapshot);
  char header[64];
  std::snprintf(header, sizeof(header), "usnapf %d %016llx\n",
                kSpillFormatVersion,
                static_cast<unsigned long long>(Fnv1a(body)));
  return std::string(header) + body;
}

std::optional<core::Snapshot> ParseSpillFrame(const std::string& text) {
  const std::size_t newline = text.find('\n');
  if (newline == std::string::npos) return std::nullopt;
  std::istringstream header(text.substr(0, newline));
  std::string magic;
  int version = 0;
  std::string checksum_hex;
  if (!(header >> magic >> version >> checksum_hex) || magic != "usnapf" ||
      version != kSpillFormatVersion) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long checksum =
      std::strtoull(checksum_hex.c_str(), &end, 16);
  if (errno != 0 || end != checksum_hex.c_str() + checksum_hex.size()) {
    return std::nullopt;
  }
  const std::string body = text.substr(newline + 1);
  if (checksum != Fnv1a(body)) return std::nullopt;
  return ParseSnapshot(body);
}

bool WriteSpillFrameFile(const core::Snapshot& snapshot,
                         const std::string& path) {
  return WriteTextFileAtomic(SpillFrameToString(snapshot), path);
}

std::optional<core::Snapshot> ReadSpillFrameFile(const std::string& path) {
  const std::optional<std::string> text = ReadWholeFile(path);
  if (!text.has_value()) return std::nullopt;
  return ParseSpillFrame(*text);
}

core::SnapshotSpillCodec MakeSnapshotSpillCodec() {
  core::SnapshotSpillCodec codec;
  codec.write = [](const core::Snapshot& snapshot, const std::string& path) {
    return WriteSpillFrameFile(snapshot, path);
  };
  codec.read = [](const std::string& path) {
    return ReadSpillFrameFile(path);
  };
  return codec;
}

}  // namespace umicro::io
