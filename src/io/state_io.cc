#include "io/state_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "io/text_cursor.h"
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

bool ParseRecordLines(TextCursor& in, std::size_t count, std::size_t dims,
                      core::Snapshot* frame,
                      std::vector<stream::LabelHistogram>* labels) {
  if (count == 0) return true;
  // Each line is read into one record-layout buffer, reused across the
  // frame, and appended with one copy.
  std::vector<double> record(core::Snapshot::RecordSize(dims));
  for (std::size_t c = 0; c < count; ++c) {
    std::uint64_t id = 0;
    if (!in.Number(&id)) return false;
    record[0] = std::bit_cast<double>(id);
    for (std::size_t v = 1; v < record.size(); ++v) {
      if (!in.Number(&record[v])) return false;
    }
    if (record[2] < 0.0) return false;  // the weight
    if (labels != nullptr) {
      std::size_t label_count = 0;
      if (!in.Keyword("labels") || !in.Number(&label_count) ||
          label_count > kMaxLabels) {
        return false;
      }
      stream::LabelHistogram& histogram = labels->emplace_back();
      for (std::size_t l = 0; l < label_count; ++l) {
        int label = 0;
        double label_weight = 0.0;
        if (!in.Number(&label) || !in.Number(&label_weight)) return false;
        histogram[label] = label_weight;
      }
    }
    frame->AppendRecord(record.data());
  }
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
  TextCursor header(text.substr(0, newline));
  int found_version = 0;
  std::uint64_t checksum = 0;
  if (!header.Keyword(magic) || !header.Number(&found_version) ||
      found_version != version || !header.Number(&checksum, 16)) {
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
bool ParseLabeledRecords(TextCursor& in, std::size_t count,
                         std::size_t dims, std::size_t text_bytes,
                         core::LabeledFrame* clusters) {
  if (!FrameHeaderFits(count, dims, text_bytes)) return false;
  clusters->frame = core::Snapshot(0.0, dims, count);
  clusters->labels.reserve(count);
  return ParseRecordLines(in, count, dims, &clusters->frame,
                          &clusters->labels);
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
bool ParseUMicroStateBody(TextCursor& in, std::size_t text_bytes,
                          core::UMicroState* out) {
  int version = 0;
  if (!in.Keyword("ustate") || !in.Number(&version) ||
      version != kFormatVersion) {
    return false;
  }

  core::UMicroState state;
  std::size_t dims = 0;
  if (!in.Keyword("dims") || !in.Number(&dims) || dims == 0 ||
      dims > kMaxDims) {
    return false;
  }
  if (!in.Keyword("counters") || !in.Number(&state.next_cluster_id) ||
      !in.Number(&state.points_processed) ||
      !in.Number(&state.clusters_created) ||
      !in.Number(&state.clusters_evicted) ||
      !in.Number(&state.clusters_merged)) {
    return false;
  }
  int started = 0;
  if (!in.Keyword("decay") || !in.Number(&state.last_decay_time) ||
      !in.Number(&started)) {
    return false;
  }
  state.decay_clock_started = started != 0;

  state.welford.resize(dims);
  for (auto& w : state.welford) {
    if (!in.Keyword("welford") || !in.Number(&w.count) ||
        !in.Number(&w.mean) || !in.Number(&w.m2) || w.m2 < 0.0) {
      return false;
    }
  }
  if (!in.Keyword("variances")) return false;
  state.global_variances.resize(dims);
  for (double& v : state.global_variances) {
    if (!in.Number(&v) || v < 0.0) return false;
  }

  std::size_t cluster_count = 0;
  if (!in.Keyword("clusters") || !in.Number(&cluster_count) ||
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
  }
  return "full";
}

/// Serializes the store: per-frame lines carrying the frame's tick,
/// time, encoding, cluster count, and dimensionality, with an
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
      }
    }
  }
}

/// Parses one encoded frame (after the "frame" keyword was consumed);
/// `text_bytes` bounds the records the rest of the input can hold. Any
/// tag but "full" and "delta" is refused.
bool ParseEncodedFrame(TextCursor& in, std::size_t engine_dims,
                       std::size_t text_bytes, core::EncodedFrame* out) {
  core::EncodedFrame frame;
  std::string_view tag;
  if (!in.Number(&frame.tick) || frame.tick == 0 ||
      !in.Number(&frame.time) || !in.Word(&tag) ||
      !in.Number(&frame.cluster_count) ||
      frame.cluster_count > kMaxClusters || !in.Number(&frame.dims) ||
      frame.dims > kMaxDims) {
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
    if (!ParseRecordLines(in, frame.cluster_count, frame.dims, full.get())) {
      return false;
    }
    frame.full = std::move(full);
  } else if (tag == "delta") {
    frame.encoding = core::FrameEncoding::kDelta;
    // Every id takes a digit and the whitespace before it: refuse a
    // count the rest of the text cannot hold before sizing the list.
    constexpr std::size_t kMinIdBytes = 2;
    if (!in.Keyword("ids") ||
        frame.cluster_count > in.remaining() / kMinIdBytes) {
      return false;
    }
    frame.ids.resize(frame.cluster_count);
    for (std::uint64_t& id : frame.ids) {
      if (!in.Number(&id)) return false;
    }
    std::size_t changed_count = 0;
    if (!in.Keyword("changed") || !in.Number(&changed_count) ||
        changed_count > frame.cluster_count ||
        !FrameHeaderFits(changed_count, frame.dims, text_bytes)) {
      return false;
    }
    frame.changed = core::Snapshot(frame.time, frame.dims, changed_count);
    if (!ParseRecordLines(in, changed_count, frame.dims, &frame.changed)) {
      return false;
    }
  } else {
    return false;
  }
  *out = std::move(frame);
  return true;
}

/// Parses the store section written by AppendSnapshotStoreState.
bool ParseSnapshotStoreState(TextCursor& in, std::size_t engine_dims,
                             std::size_t text_bytes,
                             core::SnapshotStoreState* out) {
  std::size_t order_count = 0;
  if (!in.Keyword("store") || !in.Number(&out->last_tick) ||
      !in.Number(&out->alpha) || !in.Number(&out->l) ||
      !in.Number(&order_count) || order_count > kMaxOrders) {
    return false;
  }
  // "frame" and the whitespace before it: the least text a frame takes.
  constexpr std::size_t kMinFrameBytes = 6;
  out->orders.resize(order_count);
  for (auto& order : out->orders) {
    std::size_t frame_count = 0;
    if (!in.Keyword("order") || !in.Number(&frame_count) ||
        frame_count > kMaxSnapshotsPerOrder ||
        frame_count > in.remaining() / kMinFrameBytes) {
      return false;
    }
    order.reserve(frame_count);
    for (std::size_t f = 0; f < frame_count; ++f) {
      if (!in.Keyword("frame")) return false;
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

bool ParseMetricCells(TextCursor& in, std::string_view expected_key,
                      std::vector<std::pair<std::string, double>>* out) {
  std::size_t count = 0;
  if (!in.Keyword(expected_key) || !in.Number(&count) ||
      count > kMaxMetricCells) {
    return false;
  }
  out->reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string_view name;
    double value = 0.0;
    if (!in.Word(&name) || !in.Number(&value)) return false;
    out->emplace_back(std::string(name), value);
  }
  return true;
}

}  // namespace

std::string UMicroStateToString(const core::UMicroState& state) {
  std::ostringstream out;
  AppendUMicroState(out, state);
  return out.str();
}

std::optional<core::UMicroState> ParseUMicroState(std::string_view text) {
  TextCursor in(text);
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

std::optional<core::EngineState> ParseEngineState(std::string_view text) {
  const std::optional<std::string_view> body =
      ChecksummedBody(text, "ucheckpoint", kCheckpointVersion);
  if (!body.has_value()) return std::nullopt;

  TextCursor in(*body);
  core::EngineState state;
  std::string_view kind;
  if (!in.Keyword("kind") || !in.Word(&kind)) return std::nullopt;
  state.engine_kind = std::string(kind);
  if (!in.Keyword("dims") || !in.Number(&state.dimensions) ||
      state.dimensions == 0 || state.dimensions > kMaxDims) {
    return std::nullopt;
  }
  if (!in.Keyword("ingest") || !in.Number(&state.points_ingested) ||
      !in.Number(&state.next_round_robin)) {
    return std::nullopt;
  }
  if (!in.Keyword("clock") || !in.Number(&state.next_tick) ||
      !in.Number(&state.since_snapshot) ||
      !in.Number(&state.last_timestamp)) {
    return std::nullopt;
  }

  std::size_t shard_count = 0;
  if (!in.Keyword("shards") || !in.Number(&shard_count) ||
      shard_count == 0 || shard_count > kMaxShards) {
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
  if (!in.Keyword("global") || !in.Number(&global_count) ||
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
