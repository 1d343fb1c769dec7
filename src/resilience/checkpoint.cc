#include "resilience/checkpoint.h"

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "io/state_io.h"
#include "util/paths.h"

namespace umicro::resilience {

namespace {

constexpr char kPrefix[] = "checkpoint-";
constexpr char kSuffix[] = ".uckpt";

/// Sequence number of a checkpoint filename; std::nullopt when the name
/// is not of the checkpoint-<seq>.uckpt form.
std::optional<std::uint64_t> SequenceOf(const std::string& name) {
  const std::size_t prefix_len = sizeof(kPrefix) - 1;
  const std::size_t suffix_len = sizeof(kSuffix) - 1;
  if (name.size() <= prefix_len + suffix_len) return std::nullopt;
  if (name.compare(0, prefix_len, kPrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  if (digits.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long seq = std::strtoull(digits.c_str(), &end, 10);
  if (errno != 0 || end != digits.c_str() + digits.size()) {
    return std::nullopt;
  }
  return seq;
}

std::string CheckpointName(std::uint64_t seq) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%s%08llu%s", kPrefix,
                static_cast<unsigned long long>(seq), kSuffix);
  return buffer;
}

/// (sequence, filename) pairs present in `dir`, unsorted.
std::vector<std::pair<std::uint64_t, std::string>> ScanDir(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return found;
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    const std::optional<std::uint64_t> seq = SequenceOf(name);
    if (seq.has_value()) found.emplace_back(*seq, name);
  }
  ::closedir(handle);
  return found;
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir,
                                     core::CheckpointConfig config)
    : dir_(std::move(dir)),
      config_(config),
      last_checkpoint_time_(std::chrono::steady_clock::now()) {
  util::EnsureDirectory(dir_);
  // Continue the sequence past anything already on disk so recovery's
  // "newest wins" rule holds across restarts.
  for (const auto& [seq, name] : ScanDir(dir_)) {
    next_seq_ = std::max(next_seq_, seq + 1);
  }
}

bool CheckpointManager::MaybeCheckpoint(core::ClusteringEngine& engine) {
  bool due = false;
  if (config_.every_points > 0) {
    const std::size_t points = engine.points_processed();
    due = points >= last_checkpoint_points_ + config_.every_points;
  }
  if (!due && config_.every_seconds > 0.0) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - last_checkpoint_time_;
    due = elapsed.count() >= config_.every_seconds;
  }
  if (!due) return false;
  return CheckpointNow(engine);
}

bool CheckpointManager::CheckpointNow(core::ClusteringEngine& engine) {
  const core::EngineState state = engine.ExportEngineState();
  const std::string path = dir_ + "/" + CheckpointName(next_seq_);
  if (!io::WriteEngineStateFile(state, path)) {
    ++write_failures_;
    // The cadence state still advances: a failed write should not turn
    // into a tight retry loop on every subsequent point.
    last_checkpoint_points_ = engine.points_processed();
    last_checkpoint_time_ = std::chrono::steady_clock::now();
    return false;
  }
  ++next_seq_;
  ++checkpoints_written_;
  last_checkpoint_points_ = engine.points_processed();
  last_checkpoint_time_ = std::chrono::steady_clock::now();
  last_path_ = path;
  PruneOld();
  return true;
}

void CheckpointManager::PruneOld() {
  if (config_.keep_last == 0) return;
  std::vector<std::pair<std::uint64_t, std::string>> found = ScanDir(dir_);
  if (found.size() <= config_.keep_last) return;
  std::sort(found.begin(), found.end());  // oldest first
  const std::size_t excess = found.size() - config_.keep_last;
  for (std::size_t i = 0; i < excess; ++i) {
    const std::string path = dir_ + "/" + found[i].second;
    std::remove(path.c_str());
  }
}

std::vector<std::string> ListCheckpointFiles(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found = ScanDir(dir);
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (const auto& [seq, name] : found) paths.push_back(dir + "/" + name);
  return paths;
}

RecoveredEngine RecoverOrCreateEngine(
    const std::string& checkpoint_dir,
    const std::function<std::unique_ptr<core::ClusteringEngine>()>& factory) {
  RecoveredEngine result;
  result.engine = factory();
  for (const std::string& path : ListCheckpointFiles(checkpoint_dir)) {
    const std::optional<core::EngineState> state =
        io::ReadEngineStateFile(path);
    if (!state.has_value()) {
      ++result.corrupt_skipped;
      continue;
    }
    if (!result.engine->RestoreEngineState(*state)) {
      // Parsed but incompatible with the configured engine (wrong kind,
      // dimensionality, or shard count) -- as unusable as corruption.
      ++result.corrupt_skipped;
      continue;
    }
    result.recovered = true;
    result.resume_from = result.engine->points_processed();
    result.checkpoint_path = path;
    break;
  }
  return result;
}

}  // namespace umicro::resilience
