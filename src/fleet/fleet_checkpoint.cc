#include "fleet/fleet_checkpoint.h"

#include <cstdio>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

#include "io/state_io.h"
#include "io/text_cursor.h"
#include "util/failpoints.h"

namespace umicro::fleet {

namespace {

constexpr char kManifestPrefix[] = "manifest-";
constexpr char kManifestSuffix[] = ".ufm";
constexpr char kTenantPrefix[] = "tenant-";
constexpr char kTenantSuffix[] = ".uckpt";

std::string TenantFileName(std::uint64_t tenant, std::uint64_t seq) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%s%llu-%08llu%s", kTenantPrefix,
                static_cast<unsigned long long>(tenant),
                static_cast<unsigned long long>(seq), kTenantSuffix);
  return buffer;
}

struct ManifestRecord {
  std::uint64_t tenant = 0;
  std::string file;
  std::uint64_t points = 0;
  std::uint64_t checksum = 0;
};

struct Manifest {
  std::uint64_t seq = 0;
  std::size_t dimensions = 0;
  std::vector<ManifestRecord> records;
};

std::string ManifestToString(const Manifest& manifest) {
  std::ostringstream body;
  body << "seq " << manifest.seq << "\n";
  body << "dimensions " << manifest.dimensions << "\n";
  body << "tenants " << manifest.records.size() << "\n";
  for (const ManifestRecord& record : manifest.records) {
    body << "T " << record.tenant << ' ' << record.file << ' '
         << record.points << ' ' << record.checksum << "\n";
  }
  std::ostringstream out;
  out << "ufleetmanifest 1 "
      << static_cast<unsigned long long>(io::Fnv1a(body.str())) << "\n"
      << body.str();
  return out.str();
}

/// Parses manifest text, verifying the header checksum over the body.
/// Hostile input (truncation, flips, bogus counts) yields std::nullopt.
std::optional<Manifest> ParseManifest(std::string_view text) {
  constexpr std::size_t kMaxTenants = std::size_t{1} << 24;
  // The shortest record, "T 0 f 0 0" with the whitespace before it.
  constexpr std::size_t kMinRecordBytes = 10;
  const std::size_t newline = text.find('\n');
  if (newline == std::string_view::npos) return std::nullopt;
  const std::string_view body = text.substr(newline + 1);
  io::TextCursor header(text.substr(0, newline));
  int version = 0;
  std::uint64_t checksum = 0;
  if (!header.Keyword("ufleetmanifest") || !header.Number(&version) ||
      version != 1 || !header.Number(&checksum) ||
      checksum != io::Fnv1a(body)) {
    return std::nullopt;
  }
  io::TextCursor in(body);
  Manifest manifest;
  std::size_t count = 0;
  if (!in.Keyword("seq") || !in.Number(&manifest.seq) ||
      !in.Keyword("dimensions") || !in.Number(&manifest.dimensions) ||
      !in.Keyword("tenants") || !in.Number(&count) || count > kMaxTenants ||
      count > in.remaining() / kMinRecordBytes) {
    return std::nullopt;
  }
  manifest.records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ManifestRecord record;
    std::string_view file;
    if (!in.Keyword("T") || !in.Number(&record.tenant) || !in.Word(&file) ||
        !in.Number(&record.points) || !in.Number(&record.checksum)) {
      return std::nullopt;
    }
    // Defense against path traversal through a corrupted manifest: the
    // file must be a plain name inside the checkpoint directory.
    if (file.find('/') != std::string_view::npos) return std::nullopt;
    record.file = std::string(file);
    manifest.records.push_back(std::move(record));
  }
  return manifest;
}

/// Reads + validates the manifest at `path`.
std::optional<Manifest> ReadManifestFile(const std::string& path) {
  const std::optional<std::string> text = io::ReadWholeFile(path);
  if (!text.has_value()) return std::nullopt;
  return ParseManifest(*text);
}

}  // namespace

FleetCheckpointer::FleetCheckpointer(std::string dir,
                                     core::CheckpointConfig config,
                                     obs::MetricsRegistry* metrics)
    : series_(std::move(dir), kManifestPrefix, kManifestSuffix, config) {
  if (metrics != nullptr) {
    dirty_ratio_gauge_ = &metrics->GetGauge("fleet.checkpoint.dirty_ratio");
    passes_ = &metrics->GetCounter("fleet.checkpoint.passes");
    tenants_written_ =
        &metrics->GetCounter("fleet.checkpoint.tenants_written");
    failures_ = &metrics->GetCounter("fleet.checkpoint.write_failures");
  }
  // Seed the image from the newest valid manifest so the first pass
  // after a restart rewrites only tenants that moved since it.
  for (const std::string& path : series_.List()) {
    const std::optional<Manifest> manifest = ReadManifestFile(path);
    if (!manifest.has_value()) continue;
    for (const ManifestRecord& record : manifest->records) {
      latest_[record.tenant] = {record.file, record.points, record.checksum};
    }
    last_seq_ = manifest->seq;
    break;
  }
}

bool FleetCheckpointer::MaybeCheckpoint(EngineFleet& fleet) {
  if (!series_.Due(fleet.Stats().points_ingested)) return false;
  return CheckpointNow(fleet);
}

bool FleetCheckpointer::CheckpointNow(EngineFleet& fleet) {
  fleet.Flush();
  Manifest manifest;
  manifest.dimensions = fleet.dimensions();
  std::map<std::uint64_t, TenantRecord> image;
  std::size_t dirty = 0;
  const auto write = [&](std::uint64_t seq, const std::string& path) {
    manifest.seq = seq;
    for (const std::uint64_t tenant : fleet.TenantIds()) {
      const std::uint64_t points = fleet.TenantPoints(tenant);
      const auto it = latest_.find(tenant);
      TenantRecord record;
      if (it != latest_.end() && it->second.points == points) {
        record = it->second;  // clean: reference the existing file
      } else {
        ++dirty;
        const core::EngineState state = fleet.ExportTenantState(tenant);
        const std::string text = io::EngineStateToString(state);
        record.file = TenantFileName(tenant, seq);
        record.points = points;
        record.checksum = io::Fnv1a(text);
        if (!io::WriteCheckpointFile(text,
                                     series_.dir() + "/" + record.file)) {
          return false;
        }
        if (tenants_written_ != nullptr) tenants_written_->Increment();
      }
      image[tenant] = record;
      manifest.records.push_back(
          {tenant, record.file, record.points, record.checksum});
    }
    return !UMICRO_FAILPOINT("fleet.manifest.write_fail") &&
           io::WriteTextFileAtomic(ManifestToString(manifest), path);
  };
  if (!series_.Write(fleet.Stats().points_ingested, write)) {
    ++write_failures_;
    if (failures_ != nullptr) failures_->Increment();
    return false;
  }
  ++checkpoints_written_;
  last_seq_ = manifest.seq;
  latest_ = std::move(image);
  last_dirty_count_ = dirty;
  last_dirty_ratio_ =
      manifest.records.empty()
          ? 0.0
          : static_cast<double>(dirty) /
                static_cast<double>(manifest.records.size());
  if (dirty_ratio_gauge_ != nullptr) {
    dirty_ratio_gauge_->Set(last_dirty_ratio_);
  }
  if (passes_ != nullptr) passes_->Increment();
  if (series_.keep_last() > 0) SweepTenantFiles();
  return true;
}

void FleetCheckpointer::SweepTenantFiles() {
  // Tenant files are shared between manifests (clean tenants); remove
  // only those no surviving manifest references.
  std::set<std::string> referenced;
  for (const std::string& path : series_.List()) {
    const std::optional<Manifest> manifest = ReadManifestFile(path);
    if (!manifest.has_value()) continue;
    for (const ManifestRecord& record : manifest->records) {
      referenced.insert(record.file);
    }
  }
  for (const std::string& name : io::DirectoryEntries(series_.dir())) {
    if (name.starts_with(kTenantPrefix) && name.ends_with(kTenantSuffix) &&
        name.size() > sizeof(kTenantPrefix) - 1 + sizeof(kTenantSuffix) - 1 &&
        referenced.find(name) == referenced.end()) {
      std::remove((series_.dir() + "/" + name).c_str());
    }
  }
}

std::vector<std::string> ListFleetManifestFiles(const std::string& dir) {
  return io::ListSeries(dir, kManifestPrefix, kManifestSuffix);
}

RecoveredFleet RecoverOrCreateFleet(const std::string& checkpoint_dir,
                                    std::size_t dimensions,
                                    const core::EngineConfig& config) {
  RecoveredFleet result;
  result.fleet = std::make_unique<EngineFleet>(dimensions, config);
  for (const std::string& path : ListFleetManifestFiles(checkpoint_dir)) {
    const std::optional<Manifest> manifest = ReadManifestFile(path);
    if (!manifest.has_value() || manifest->dimensions != dimensions) {
      ++result.manifests_skipped;
      continue;
    }
    result.recovered = true;
    result.manifest_seq = manifest->seq;
    for (const ManifestRecord& record : manifest->records) {
      // The tenant exists either way; only a fully validated state is
      // restored into it. A bad record costs one tenant's history, not
      // the fleet.
      result.fleet->EnsureTenant(record.tenant);
      const std::optional<std::string> text =
          io::ReadWholeFile(checkpoint_dir + "/" + record.file);
      if (!text.has_value() || io::Fnv1a(*text) != record.checksum) {
        ++result.corrupt_skipped;
        continue;
      }
      const std::optional<core::EngineState> state =
          io::ParseEngineState(*text);
      if (!state.has_value() ||
          !result.fleet->RestoreTenantState(record.tenant, *state)) {
        ++result.corrupt_skipped;
        continue;
      }
      ++result.tenants_restored;
      result.resume_from[record.tenant] = record.points;
    }
    break;
  }
  return result;
}

}  // namespace umicro::fleet
