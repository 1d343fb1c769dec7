#include "io/state_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "util/paths.h"

namespace umicro::io {

namespace {
constexpr int kFormatVersion = 1;
constexpr int kCheckpointVersion = 2;

// Hard caps on the remaining counts read from untrusted bytes (kMaxDims
// and kMaxClusters are in the header), same rationale.
constexpr std::size_t kMaxLabels = std::size_t{1} << 20;
constexpr std::size_t kMaxShards = std::size_t{1} << 10;
constexpr std::size_t kMaxOrders = 64;
constexpr std::size_t kMaxSnapshotsPerOrder = std::size_t{1} << 20;
constexpr std::size_t kMaxMetricCells = std::size_t{1} << 20;

void AppendDouble(std::ostringstream& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out << buffer;
}

/// Extracts one double, rejecting NaN/Inf (no serialized state
/// legitimately contains them, and downstream math assumes finiteness).
bool ReadFinite(std::istream& in, double* out) {
  double value = 0.0;
  if (!(in >> value) || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

}  // namespace

bool FrameHeaderFits(std::size_t count, std::size_t dims,
                     std::size_t text_bytes) {
  return dims <= kMaxDims && count <= kMaxClusters &&
         count <= text_bytes / core::Snapshot::RecordSize(dims);
}

void AppendRecordLine(std::ostringstream& out, const core::Snapshot& frame,
                      std::size_t i, const stream::LabelHistogram* labels) {
  out << frame.id(i);
  for (const double v : {frame.creation_time(i), frame.weight(i),
                         frame.last_update_time(i)}) {
    out << ' ';
    AppendDouble(out, v);
  }
  for (const double* row : {frame.cf1(i), frame.cf2(i), frame.ef2(i)}) {
    for (std::size_t j = 0; j < frame.dims(); ++j) {
      out << ' ';
      AppendDouble(out, row[j]);
    }
  }
  if (labels != nullptr) {
    out << " labels " << labels->size();
    for (const auto& [label, weight] : *labels) {
      out << ' ' << label << ' ';
      AppendDouble(out, weight);
    }
  }
  out << "\n";
}

bool ParseRecordLine(std::istream& in, std::size_t dims,
                     core::Snapshot* frame, stream::LabelHistogram* labels) {
  std::uint64_t id = 0;
  double creation_time = 0.0;
  double weight = 0.0;
  double last_update = 0.0;
  if (!(in >> id) || !ReadFinite(in, &creation_time) ||
      !ReadFinite(in, &weight) || !ReadFinite(in, &last_update)) {
    return false;
  }
  if (weight < 0.0) return false;
  std::vector<double> rows(3 * dims);
  for (double& v : rows) {
    if (!ReadFinite(in, &v)) return false;
  }
  if (labels != nullptr) {
    std::string key;
    std::size_t label_count = 0;
    if (!(in >> key >> label_count) || key != "labels" ||
        label_count > kMaxLabels) {
      return false;
    }
    for (std::size_t l = 0; l < label_count; ++l) {
      int label = 0;
      double label_weight = 0.0;
      if (!(in >> label) || !ReadFinite(in, &label_weight)) return false;
      (*labels)[label] = label_weight;
    }
  }
  frame->Append(id, creation_time, weight, last_update, rows.data(),
                rows.data() + dims, rows.data() + 2 * dims);
  return true;
}

std::uint64_t Fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

bool WriteTextFileAtomic(const std::string& text, const std::string& path) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return false;
  const char* data = text.data();
  std::size_t remaining = text.size();
  while (remaining > 0) {
    const ssize_t written = ::write(fd, data, remaining);
    if (written < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    data += written;
    remaining -= static_cast<std::size_t>(written);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  const std::string dir = util::ParentDirectory(path);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return true;
}

std::optional<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) return std::nullopt;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::string ChecksummedText(
    std::string_view magic, int version,
    const std::function<void(std::ostringstream&)>& append_body) {
  // The body is written after a fixed-width header whose checksum is
  // filled in place afterwards, so the text of a multi-megabyte engine
  // exists once in memory rather than as body, copy and concatenation.
  const auto header = [magic, version](std::uint64_t checksum) {
    char line[96];
    std::snprintf(line, sizeof(line), "%.*s %d %016llx\n",
                  static_cast<int>(magic.size()), magic.data(), version,
                  static_cast<unsigned long long>(checksum));
    return std::string(line);
  };
  const std::string blank = header(0);
  std::ostringstream out;
  out << blank;
  append_body(out);
  std::string text = std::move(out).str();
  text.replace(0, blank.size(),
               header(Fnv1a(std::string_view(text).substr(blank.size()))));
  return text;
}

std::optional<std::string_view> ChecksummedBody(std::string_view text,
                                                std::string_view magic,
                                                int version) {
  const std::size_t newline = text.find('\n');
  if (newline == std::string_view::npos) return std::nullopt;
  std::istringstream header{std::string(text.substr(0, newline))};
  std::string found_magic;
  int found_version = 0;
  std::string checksum_hex;
  if (!(header >> found_magic >> found_version >> checksum_hex) ||
      found_magic != magic || found_version != version) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long checksum =
      std::strtoull(checksum_hex.c_str(), &end, 16);
  if (errno != 0 || end != checksum_hex.c_str() + checksum_hex.size()) {
    return std::nullopt;
  }
  const std::string_view body = text.substr(newline + 1);
  if (checksum != Fnv1a(body)) return std::nullopt;
  return body;
}

namespace {

/// Writes `clusters` as labeled record lines, one per record.
void AppendLabeledRecords(std::ostringstream& out,
                          const core::LabeledFrame& clusters) {
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    AppendRecordLine(out, clusters.frame, i, &clusters.labels[i]);
  }
}

/// Parses `count` labeled record lines of `dims` dimensions into a fresh
/// `clusters`, checking the header (FrameHeaderFits) before reserving.
bool ParseLabeledRecords(std::istream& in, std::size_t count,
                         std::size_t dims, std::size_t text_bytes,
                         core::LabeledFrame* clusters) {
  if (!FrameHeaderFits(count, dims, text_bytes)) return false;
  clusters->frame = core::Snapshot(0.0, dims, count);
  clusters->labels.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    clusters->labels.emplace_back();
    if (!ParseRecordLine(in, dims, &clusters->frame,
                         &clusters->labels.back())) {
      return false;
    }
  }
  return true;
}

void AppendUMicroState(std::ostringstream& out,
                       const core::UMicroState& state) {
  const std::size_t dims = state.welford.size();
  out << "ustate " << kFormatVersion << "\n";
  out << "dims " << dims << "\n";
  out << "counters " << state.next_cluster_id << ' '
      << state.points_processed << ' ' << state.clusters_created << ' '
      << state.clusters_evicted << ' ' << state.clusters_merged << "\n";
  out << "decay ";
  AppendDouble(out, state.last_decay_time);
  out << ' ' << (state.decay_clock_started ? 1 : 0) << "\n";
  for (const auto& w : state.welford) {
    out << "welford " << w.count << ' ';
    AppendDouble(out, w.mean);
    out << ' ';
    AppendDouble(out, w.m2);
    out << "\n";
  }
  out << "variances";
  for (double v : state.global_variances) {
    out << ' ';
    AppendDouble(out, v);
  }
  out << "\n";
  out << "clusters " << state.clusters.size() << "\n";
  AppendLabeledRecords(out, state.clusters);
}

/// `text_bytes` bounds the records the input can hold.
bool ParseUMicroStateBody(std::istream& in, std::size_t text_bytes,
                          core::UMicroState* out) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "ustate" ||
      version != kFormatVersion) {
    return false;
  }

  core::UMicroState state;
  std::string key;
  std::size_t dims = 0;
  if (!(in >> key >> dims) || key != "dims" || dims == 0 ||
      dims > kMaxDims) {
    return false;
  }
  if (!(in >> key >> state.next_cluster_id >> state.points_processed >>
        state.clusters_created >> state.clusters_evicted >>
        state.clusters_merged) ||
      key != "counters") {
    return false;
  }
  int started = 0;
  if (!(in >> key) || key != "decay" ||
      !ReadFinite(in, &state.last_decay_time) || !(in >> started)) {
    return false;
  }
  state.decay_clock_started = started != 0;

  state.welford.resize(dims);
  for (auto& w : state.welford) {
    if (!(in >> key >> w.count) || key != "welford" ||
        !ReadFinite(in, &w.mean) || !ReadFinite(in, &w.m2)) {
      return false;
    }
    if (w.m2 < 0.0) return false;
  }
  if (!(in >> key) || key != "variances") return false;
  state.global_variances.resize(dims);
  for (double& v : state.global_variances) {
    if (!ReadFinite(in, &v) || v < 0.0) return false;
  }

  std::size_t cluster_count = 0;
  if (!(in >> key >> cluster_count) || key != "clusters" ||
      !ParseLabeledRecords(in, cluster_count, dims, text_bytes,
                           &state.clusters)) {
    return false;
  }
  *out = std::move(state);
  return true;
}

const char* FrameEncodingTag(core::FrameEncoding encoding) {
  switch (encoding) {
    case core::FrameEncoding::kFull: return "full";
    case core::FrameEncoding::kDelta: return "delta";
    case core::FrameEncoding::kQuantized: return "quant";
    case core::FrameEncoding::kSpilled: return "spill";
  }
  return "full";
}

/// Floats are printed with 9 significant digits, which round-trips
/// float32 exactly through the double-typed text parse.
void AppendFloat(std::ostringstream& out, float value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", static_cast<double>(value));
  out << buffer;
}

/// Serializes the tiered store: per-frame lines carrying the frame's
/// tick, time, encoding, cluster count, and dimensionality, with an
/// encoding-specific payload. Delta frames ship only their changed
/// clusters, which is what shrinks per-tenant checkpoint bytes.
void AppendSnapshotStoreState(std::ostringstream& out,
                              const core::SnapshotStoreState& store) {
  out << "store " << store.last_tick << ' ' << store.alpha << ' ' << store.l
      << ' ' << store.orders.size() << "\n";
  for (const auto& order : store.orders) {
    out << "order " << order.size() << "\n";
    for (const auto& frame : order) {
      out << "frame " << frame.tick << ' ';
      AppendDouble(out, frame.time);
      out << ' ' << FrameEncodingTag(frame.encoding) << ' '
          << frame.cluster_count << ' ' << frame.dims << "\n";
      switch (frame.encoding) {
        case core::FrameEncoding::kFull:
          for (std::size_t i = 0; i < frame.full->size(); ++i) {
            AppendRecordLine(out, *frame.full, i);
          }
          break;
        case core::FrameEncoding::kDelta: {
          out << "ids";
          for (std::uint64_t id : frame.ids) out << ' ' << id;
          out << "\n";
          out << "changed " << frame.changed.size() << "\n";
          for (std::size_t i = 0; i < frame.changed.size(); ++i) {
            AppendRecordLine(out, frame.changed, i);
          }
          break;
        }
        case core::FrameEncoding::kQuantized: {
          const auto& q = frame.quant;
          for (std::size_t i = 0; i < q.ids.size(); ++i) {
            out << q.ids[i] << ' ';
            AppendDouble(out, q.creation_times[i]);
            out << ' ';
            AppendFloat(out, q.weights[i]);
            out << ' ';
            AppendFloat(out, q.last_updates[i]);
            for (std::size_t v = 0; v < 3 * q.dims; ++v) {
              out << ' ';
              AppendFloat(out, q.values[i * 3 * q.dims + v]);
            }
            out << "\n";
          }
          break;
        }
        case core::FrameEncoding::kSpilled:
          out << "path " << frame.spill_path << "\n";
          break;
      }
    }
  }
}

/// Parses one encoded frame (after the "frame" keyword was consumed);
/// `text_bytes` bounds the records the rest of the input can hold.
bool ParseEncodedFrame(std::istream& in, std::size_t engine_dims,
                       std::size_t text_bytes, core::EncodedFrame* out) {
  core::EncodedFrame frame;
  std::string tag;
  if (!(in >> frame.tick) || frame.tick == 0 ||
      !ReadFinite(in, &frame.time) || !(in >> tag) ||
      !(in >> frame.cluster_count) || frame.cluster_count > kMaxClusters ||
      !(in >> frame.dims) || frame.dims > kMaxDims) {
    return false;
  }
  // A frame's clusters share the engine's dimensionality (empty frames
  // carry dims 0); anything else cannot have come from our writer.
  if (frame.cluster_count > 0 && frame.dims != engine_dims) return false;
  if (frame.cluster_count == 0 && frame.dims != 0 &&
      frame.dims != engine_dims) {
    return false;
  }
  if (tag == "full") {
    frame.encoding = core::FrameEncoding::kFull;
    if (!FrameHeaderFits(frame.cluster_count, frame.dims, text_bytes)) {
      return false;
    }
    auto full = std::make_shared<core::Snapshot>(frame.time, frame.dims,
                                                 frame.cluster_count);
    for (std::size_t c = 0; c < frame.cluster_count; ++c) {
      if (!ParseRecordLine(in, frame.dims, full.get())) return false;
    }
    frame.full = std::move(full);
  } else if (tag == "delta") {
    frame.encoding = core::FrameEncoding::kDelta;
    std::string key;
    if (!(in >> key) || key != "ids") return false;
    frame.ids.resize(frame.cluster_count);
    for (std::uint64_t& id : frame.ids) {
      if (!(in >> id)) return false;
    }
    std::size_t changed_count = 0;
    if (!(in >> key >> changed_count) || key != "changed" ||
        changed_count > frame.cluster_count ||
        !FrameHeaderFits(changed_count, frame.dims, text_bytes)) {
      return false;
    }
    frame.changed = core::Snapshot(frame.time, frame.dims, changed_count);
    for (std::size_t c = 0; c < changed_count; ++c) {
      if (!ParseRecordLine(in, frame.dims, &frame.changed)) return false;
    }
  } else if (tag == "quant") {
    frame.encoding = core::FrameEncoding::kQuantized;
    if (!FrameHeaderFits(frame.cluster_count, frame.dims, text_bytes)) {
      return false;
    }
    auto& q = frame.quant;
    q.dims = frame.dims;
    q.ids.resize(frame.cluster_count);
    q.creation_times.resize(frame.cluster_count);
    q.weights.resize(frame.cluster_count);
    q.last_updates.resize(frame.cluster_count);
    q.values.resize(frame.cluster_count * 3 * q.dims);
    for (std::size_t i = 0; i < frame.cluster_count; ++i) {
      double weight = 0.0;
      double last_update = 0.0;
      if (!(in >> q.ids[i]) || !ReadFinite(in, &q.creation_times[i]) ||
          !ReadFinite(in, &weight) || weight < 0.0 ||
          !ReadFinite(in, &last_update)) {
        return false;
      }
      q.weights[i] = static_cast<float>(weight);
      q.last_updates[i] = static_cast<float>(last_update);
      for (std::size_t v = 0; v < 3 * q.dims; ++v) {
        double value = 0.0;
        if (!ReadFinite(in, &value)) return false;
        q.values[i * 3 * q.dims + v] = static_cast<float>(value);
      }
    }
  } else if (tag == "spill") {
    frame.encoding = core::FrameEncoding::kSpilled;
    std::string key;
    if (!(in >> key) || key != "path") return false;
    std::string path;
    std::getline(in, path);
    if (!path.empty() && path.front() == ' ') path.erase(0, 1);
    if (path.empty()) return false;
    frame.spill_path = std::move(path);
  } else {
    return false;
  }
  *out = std::move(frame);
  return true;
}

/// Parses the store section written by AppendSnapshotStoreState.
bool ParseSnapshotStoreState(std::istream& in, std::size_t engine_dims,
                             std::size_t text_bytes,
                             core::SnapshotStoreState* out) {
  std::string key;
  std::size_t order_count = 0;
  if (!(in >> key >> out->last_tick >> out->alpha >> out->l >> order_count) ||
      key != "store" || order_count > kMaxOrders) {
    return false;
  }
  out->orders.resize(order_count);
  for (auto& order : out->orders) {
    std::size_t frame_count = 0;
    if (!(in >> key >> frame_count) || key != "order" ||
        frame_count > kMaxSnapshotsPerOrder) {
      return false;
    }
    order.reserve(frame_count);
    for (std::size_t f = 0; f < frame_count; ++f) {
      if (!(in >> key) || key != "frame") return false;
      core::EncodedFrame frame;
      if (!ParseEncodedFrame(in, engine_dims, text_bytes, &frame)) {
        return false;
      }
      order.push_back(std::move(frame));
    }
  }
  return true;
}

/// Everything after the checkpoint header line.
void AppendEngineCheckpointBody(std::ostringstream& out,
                                const core::EngineState& state) {
  out << "kind " << state.engine_kind << "\n";
  out << "dims " << state.dimensions << "\n";
  out << "ingest " << state.points_ingested << ' ' << state.next_round_robin
      << "\n";
  out << "clock " << state.next_tick << ' ' << state.since_snapshot << ' ';
  AppendDouble(out, state.last_timestamp);
  out << "\n";
  out << "shards " << state.shard_states.size() << "\n";
  for (const auto& shard : state.shard_states) {
    AppendUMicroState(out, shard);
  }
  // The sharded engine rebuilds its merged view from the shard states,
  // so the section that once carried it is always written empty.
  out << "global 0\n";
  AppendSnapshotStoreState(out, state.store);
  out << "counters " << state.counters.size() << "\n";
  for (const auto& [name, value] : state.counters) {
    out << name << ' ';
    AppendDouble(out, value);
    out << "\n";
  }
  out << "gauges " << state.gauges.size() << "\n";
  for (const auto& [name, value] : state.gauges) {
    out << name << ' ';
    AppendDouble(out, value);
    out << "\n";
  }
}

bool ParseMetricCells(std::istream& in, const std::string& expected_key,
                      std::vector<std::pair<std::string, double>>* out) {
  std::string key;
  std::size_t count = 0;
  if (!(in >> key >> count) || key != expected_key ||
      count > kMaxMetricCells) {
    return false;
  }
  out->reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string name;
    double value = 0.0;
    if (!(in >> name) || !ReadFinite(in, &value)) return false;
    out->emplace_back(std::move(name), value);
  }
  return true;
}

}  // namespace

std::string UMicroStateToString(const core::UMicroState& state) {
  std::ostringstream out;
  AppendUMicroState(out, state);
  return out.str();
}

std::optional<core::UMicroState> ParseUMicroState(const std::string& text) {
  std::istringstream in(text);
  core::UMicroState state;
  if (!ParseUMicroStateBody(in, text.size(), &state)) return std::nullopt;
  return state;
}

std::string MicroClustersToString(const core::LabeledFrame& clusters,
                                  std::size_t dimensions) {
  std::ostringstream out;
  out << "uclusters 1 " << dimensions << ' ' << clusters.size() << "\n";
  AppendLabeledRecords(out, clusters);
  return out.str();
}

bool WriteMicroClustersFile(const core::LabeledFrame& clusters,
                            std::size_t dimensions, const std::string& path) {
  return WriteTextFileAtomic(MicroClustersToString(clusters, dimensions),
                             path);
}

std::string EngineStateToString(const core::EngineState& state) {
  return ChecksummedText("ucheckpoint", kCheckpointVersion,
                         [&state](std::ostringstream& out) {
                           AppendEngineCheckpointBody(out, state);
                         });
}

std::optional<core::EngineState> ParseEngineState(const std::string& text) {
  const std::optional<std::string_view> body =
      ChecksummedBody(text, "ucheckpoint", kCheckpointVersion);
  if (!body.has_value()) return std::nullopt;

  std::istringstream in{std::string(*body)};
  core::EngineState state;
  std::string key;
  if (!(in >> key >> state.engine_kind) || key != "kind" ||
      state.engine_kind.empty()) {
    return std::nullopt;
  }
  if (!(in >> key >> state.dimensions) || key != "dims" ||
      state.dimensions == 0 || state.dimensions > kMaxDims) {
    return std::nullopt;
  }
  if (!(in >> key >> state.points_ingested >> state.next_round_robin) ||
      key != "ingest") {
    return std::nullopt;
  }
  if (!(in >> key >> state.next_tick >> state.since_snapshot) ||
      key != "clock" || !ReadFinite(in, &state.last_timestamp)) {
    return std::nullopt;
  }

  std::size_t shard_count = 0;
  if (!(in >> key >> shard_count) || key != "shards" || shard_count == 0 ||
      shard_count > kMaxShards) {
    return std::nullopt;
  }
  state.shard_states.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    core::UMicroState shard;
    if (!ParseUMicroStateBody(in, text.size(), &shard)) return std::nullopt;
    if (shard.welford.size() != state.dimensions) return std::nullopt;
    state.shard_states.push_back(std::move(shard));
  }

  // Checkpoints written before the merged view stopped being persisted
  // carry it here: parse it (the checksum covers it) and discard it.
  std::size_t global_count = 0;
  core::LabeledFrame discarded;
  if (!(in >> key >> global_count) || key != "global" ||
      !ParseLabeledRecords(in, global_count, state.dimensions, text.size(),
                           &discarded)) {
    return std::nullopt;
  }

  if (!ParseSnapshotStoreState(in, state.dimensions, text.size(),
                               &state.store)) {
    return std::nullopt;
  }

  if (!ParseMetricCells(in, "counters", &state.counters)) return std::nullopt;
  if (!ParseMetricCells(in, "gauges", &state.gauges)) return std::nullopt;
  return state;
}

std::optional<core::EngineState> ReadEngineStateFile(const std::string& path) {
  const std::optional<std::string> text = ReadWholeFile(path);
  if (!text.has_value()) return std::nullopt;
  return ParseEngineState(*text);
}

}  // namespace umicro::io
