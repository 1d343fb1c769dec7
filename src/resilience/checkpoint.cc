#include "resilience/checkpoint.h"

#include <utility>

#include "io/state_io.h"

namespace umicro::resilience {

namespace {
constexpr char kPrefix[] = "checkpoint-";
constexpr char kSuffix[] = ".uckpt";
}  // namespace

CheckpointManager::CheckpointManager(std::string dir,
                                     core::CheckpointConfig config)
    : series_(std::move(dir), kPrefix, kSuffix, config) {}

bool CheckpointManager::MaybeCheckpoint(core::ClusteringEngine& engine) {
  if (!series_.Due(engine.points_processed())) return false;
  return CheckpointNow(engine);
}

bool CheckpointManager::CheckpointNow(core::ClusteringEngine& engine) {
  const core::EngineState state = engine.ExportEngineState();
  std::string path;
  const bool ok = series_.Write(
      engine.points_processed(),
      [&state, &path](std::uint64_t, const std::string& file) {
        path = file;
        return io::WriteCheckpointFile(io::EngineStateToString(state), file);
      });
  if (!ok) {
    ++write_failures_;
    return false;
  }
  ++checkpoints_written_;
  last_path_ = std::move(path);
  return true;
}

std::vector<std::string> ListCheckpointFiles(const std::string& dir) {
  return io::ListSeries(dir, kPrefix, kSuffix);
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
