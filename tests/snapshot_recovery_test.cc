// Crash-recovery tests for the tiered snapshot store's cold frames
// (docs/snapshots.md).
//
// A spilled frame lives outside the checkpoint: the checkpoint carries
// only its header and file path. Recovery must therefore survive the
// spill files being gone or corrupt -- a crash can lose the spill
// directory without losing the checkpoint -- by skipping the dead frame
// and answering from the next-best candidate (never by crashing and
// never by serving unverified bytes; the codec checksum gates every
// load).

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/engine_core.h"
#include "core/snapshot.h"
#include "io/snapshot_io.h"
#include "io/state_io.h"
#include "resilience/checkpoint.h"
#include "stream/point.h"
#include "util/paths.h"

namespace umicro::core {
namespace {

std::vector<stream::UncertainPoint> DriftStream(std::uint64_t seed,
                                                std::size_t dims,
                                                std::size_t count) {
  std::vector<stream::UncertainPoint> points;
  points.reserve(count);
  std::uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((state >> 11) & 0xffffffffull) / 4294967296.0;
  };
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> values(dims);
    std::vector<double> errors(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      values[d] = static_cast<double>(i % 4) * 8.0 + (next() - 0.5);
      errors[d] = 0.1 + 0.2 * next();
    }
    points.emplace_back(std::move(values), std::move(errors),
                        static_cast<double>(i + 1));
  }
  return points;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "snapshot_recovery_" +
                          name + "_" + std::to_string(::getpid());
  EXPECT_TRUE(util::EnsureDirectory(dir));
  return dir;
}

EngineConfig TieredOptions(const std::string& spill_dir) {
  EngineConfig options;
  options.umicro.num_micro_clusters = 16;
  options.snapshot.snapshot_every = 4;
  options.snapshot.pyramid_alpha = 2;
  options.snapshot.pyramid_l = 2;
  options.snapshot.tiering.mode = SnapshotStoreMode::kTiered;
  options.snapshot.tiering.budget_bytes = 2048;
  options.snapshot.tiering.spill_dir = spill_dir;
  options.snapshot.tiering.codec = io::MakeSnapshotSpillCodec();
  return options;
}

/// A sequential core over the umicro + snapshot fields of `config`.
EngineCore MakeCore(std::size_t dims, const EngineConfig& config) {
  return EngineCore(dims, config.umicro, config.snapshot);
}

std::vector<std::string> SpillPaths(const SnapshotStore& store) {
  std::vector<std::string> paths;
  for (std::size_t order = 0; order < store.NumOrders(); ++order) {
    for (std::size_t i = 0; i < store.OrderSize(order); ++i) {
      const EncodedFrame& frame = store.FrameAt(order, i);
      if (frame.encoding == FrameEncoding::kSpilled) {
        paths.push_back(frame.spill_path);
      }
    }
  }
  return paths;
}

void CorruptFile(const std::string& path) {
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(text.size(), 40u);
  text[text.size() / 2] ^= 0x20;  // flip one body bit; checksum must catch
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

// After spill damage, every query and walk must still answer (possibly
// from a neighbouring frame) and the failures must be counted.
void ExpectDegradedButAlive(EngineCore& engine, std::size_t dead_frames) {
  MacroClusteringOptions macro;
  macro.k = 3;
  for (const double horizon : {5.0, 40.0, 150.0, 400.0}) {
    const auto result = engine.ClusterRecent(horizon, macro);
    ASSERT_TRUE(result.has_value()) << "horizon " << horizon;
    EXPECT_GT(result->macro.centroids.size(), 0u);
  }
  std::size_t visited = 0;
  const SnapshotStore& store = engine.store();
  for (std::size_t order = 0; order < store.NumOrders(); ++order) {
    for (std::size_t i = 0; i < store.OrderSize(order); ++i) {
      visited += store.MaterializeFrame(order, i).has_value();
    }
  }
  const SnapshotTierStats stats = engine.store().TierStats();
  EXPECT_EQ(visited, stats.frames - dead_frames);
  EXPECT_GE(stats.spill_failures, dead_frames);
}

TEST(SnapshotRecoveryTest, RestoreWithMissingSpillFilesSkipsAndDegrades) {
  const std::string dir = FreshDir("missing");
  EngineCore engine = MakeCore(2, TieredOptions(dir));
  for (const auto& point : DriftStream(0x51, 2, 2000)) {
    engine.Process(point);
  }
  const std::vector<std::string> spills = SpillPaths(engine.store());
  ASSERT_GT(spills.size(), 1u);

  const std::string text = io::EngineStateToString(engine.ExportState());
  for (const std::string& path : spills) {
    ASSERT_EQ(std::remove(path.c_str()), 0) << path;
  }

  const auto parsed = io::ParseEngineState(text);
  ASSERT_TRUE(parsed.has_value());
  EngineCore recovered = MakeCore(2, TieredOptions(dir));
  ASSERT_TRUE(recovered.RestoreState(*parsed));
  ExpectDegradedButAlive(recovered, spills.size());
}

TEST(SnapshotRecoveryTest, RestoreWithCorruptSpillFilesSkipsAndDegrades) {
  const std::string dir = FreshDir("corrupt");
  EngineCore engine = MakeCore(2, TieredOptions(dir));
  for (const auto& point : DriftStream(0x52, 2, 2000)) {
    engine.Process(point);
  }
  const std::vector<std::string> spills = SpillPaths(engine.store());
  ASSERT_GT(spills.size(), 1u);

  const std::string text = io::EngineStateToString(engine.ExportState());
  for (const std::string& path : spills) {
    CorruptFile(path);
  }

  const auto parsed = io::ParseEngineState(text);
  ASSERT_TRUE(parsed.has_value());
  EngineCore recovered = MakeCore(2, TieredOptions(dir));
  ASSERT_TRUE(recovered.RestoreState(*parsed));
  ExpectDegradedButAlive(recovered, spills.size());
}

TEST(SnapshotRecoveryTest, KillPointsWithLostSpillsRecoverAndKeepServing) {
  const auto points = DriftStream(0x53, 3, 3000);
  for (const std::size_t kill_at : {700u, 1500u, 2600u}) {
    const std::string checkpoint_dir =
        FreshDir("kill" + std::to_string(kill_at));
    const std::string spill_dir =
        FreshDir("kill" + std::to_string(kill_at) + "_spill");
    auto factory = [&spill_dir]() {
      return std::make_unique<UMicroEngine>(3, TieredOptions(spill_dir));
    };

    std::vector<std::string> spills;
    {
      std::unique_ptr<core::ClusteringEngine> doomed = factory();
      resilience::CheckpointManager manager(checkpoint_dir, {});
      for (std::size_t i = 0; i < kill_at; ++i) {
        doomed->Process(points[i]);
      }
      ASSERT_TRUE(manager.CheckpointNow(*doomed));
      spills = SpillPaths(doomed->store());
      // Post-checkpoint work the crash destroys.
      for (std::size_t i = kill_at; i < kill_at + 32; ++i) {
        doomed->Process(points[i]);
      }
    }
    ASSERT_GT(spills.size(), 0u) << "kill at " << kill_at;

    // The crash also takes out half of the spilled cold frames. Some of
    // the checkpoint's spill files may already be gone -- the doomed
    // engine's post-checkpoint evictions delete them -- which is the
    // same degradation recovery must absorb.
    for (std::size_t i = 0; i < spills.size(); i += 2) {
      std::remove(spills[i].c_str());
    }

    resilience::RecoveredEngine recovered =
        resilience::RecoverOrCreateEngine(checkpoint_dir, factory);
    ASSERT_TRUE(recovered.recovered) << "kill at " << kill_at;
    EXPECT_EQ(recovered.resume_from, kill_at);

    // Replay the remainder and query: degraded where cold history was
    // lost, but always an answer, never a crash.
    for (std::size_t i = kill_at; i < points.size(); ++i) {
      recovered.engine->Process(points[i]);
    }
    MacroClusteringOptions macro;
    macro.k = 3;
    for (const double horizon : {10.0, 100.0, 1000.0}) {
      const auto result = recovered.engine->ClusterRecent(horizon, macro);
      ASSERT_TRUE(result.has_value())
          << "kill at " << kill_at << " horizon " << horizon;
    }
  }
}

}  // namespace
}  // namespace umicro::core
