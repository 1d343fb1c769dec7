// Tests for the crash-safe checkpoint manager and recovery helper.

#include "resilience/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "io/state_io.h"
#include "stream/dataset.h"
#include "util/failpoints.h"
#include "util/random.h"

namespace umicro::resilience {
namespace {

stream::Dataset RandomStream(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  stream::Dataset dataset(3);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.NextBounded(3));
    dataset.Add(stream::UncertainPoint(
        {cls * 5.0 + rng.Gaussian(0.0, 0.5), rng.Gaussian(0.0, 0.5),
         rng.Gaussian(0.0, 0.5)},
        {rng.Uniform(0.0, 0.3), rng.Uniform(0.0, 0.3),
         rng.Uniform(0.0, 0.3)},
        static_cast<double>(i), cls));
  }
  return dataset;
}

std::unique_ptr<core::ClusteringEngine> MakeEngine(std::size_t dims = 3) {
  core::EngineConfig options;
  options.umicro.num_micro_clusters = 20;
  options.snapshot.snapshot_every = 256;
  return std::make_unique<core::UMicroEngine>(dims, options);
}

/// A fresh, empty checkpoint directory unique to `name`.
std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  for (const std::string& path : ListCheckpointFiles(dir)) {
    std::remove(path.c_str());
  }
  return dir;
}

class CheckpointTest : public testing::Test {
 protected:
  void TearDown() override {
    util::FailpointRegistry::Instance().DisarmAll();
  }
};

TEST_F(CheckpointTest, RecoverFromMissingDirIsFresh) {
  const RecoveredEngine recovered = RecoverOrCreateEngine(
      testing::TempDir() + "/checkpoint_no_such_dir", [] {
        return MakeEngine();
      });
  ASSERT_NE(recovered.engine, nullptr);
  EXPECT_FALSE(recovered.recovered);
  EXPECT_EQ(recovered.resume_from, 0u);
  EXPECT_EQ(recovered.corrupt_skipped, 0u);
  EXPECT_EQ(recovered.engine->points_processed(), 0u);
}

TEST_F(CheckpointTest, RoundTripRestoresTheEngine) {
  const std::string dir = FreshDir("checkpoint_roundtrip");
  const auto dataset = RandomStream(1000, 1);
  auto engine = MakeEngine();
  for (const auto& point : dataset.points()) engine->Process(point);

  CheckpointManager manager(dir, core::CheckpointConfig{});
  ASSERT_TRUE(manager.CheckpointNow(*engine));
  EXPECT_EQ(manager.checkpoints_written(), 1u);
  EXPECT_FALSE(manager.last_path().empty());

  const RecoveredEngine recovered =
      RecoverOrCreateEngine(dir, [] { return MakeEngine(); });
  ASSERT_TRUE(recovered.recovered);
  EXPECT_EQ(recovered.resume_from, 1000u);
  EXPECT_EQ(recovered.checkpoint_path, manager.last_path());
  // Bit-identical durable state.
  EXPECT_EQ(io::EngineStateToString(recovered.engine->ExportEngineState()),
            io::EngineStateToString(engine->ExportEngineState()));
}

TEST_F(CheckpointTest, MaybeCheckpointHonorsPointCadence) {
  const std::string dir = FreshDir("checkpoint_cadence");
  const auto dataset = RandomStream(250, 2);
  auto engine = MakeEngine();
  core::CheckpointConfig config;
  config.every_points = 100;
  CheckpointManager manager(dir, config);

  for (std::size_t i = 0; i < dataset.size(); ++i) {
    engine->Process(dataset[i]);
    manager.MaybeCheckpoint(*engine);
  }
  // Due at 100 and 200 processed points; not again before 300.
  EXPECT_EQ(manager.checkpoints_written(), 2u);
}

TEST_F(CheckpointTest, RecoverySkipsCorruptNewestCheckpoint) {
  const std::string dir = FreshDir("checkpoint_corrupt");
  const auto dataset = RandomStream(600, 3);
  auto engine = MakeEngine();
  CheckpointManager manager(dir, core::CheckpointConfig{});
  for (std::size_t i = 0; i < 300; ++i) engine->Process(dataset[i]);
  ASSERT_TRUE(manager.CheckpointNow(*engine));
  const std::string good_path = manager.last_path();
  for (std::size_t i = 300; i < 600; ++i) engine->Process(dataset[i]);
  ASSERT_TRUE(manager.CheckpointNow(*engine));

  {
    // Flip a byte in the body of the newest checkpoint: the checksum in
    // the header must catch it.
    std::fstream file(manager.last_path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(64);
    file.put('#');
  }

  const RecoveredEngine recovered =
      RecoverOrCreateEngine(dir, [] { return MakeEngine(); });
  ASSERT_TRUE(recovered.recovered);
  EXPECT_EQ(recovered.corrupt_skipped, 1u);
  EXPECT_EQ(recovered.checkpoint_path, good_path);
  EXPECT_EQ(recovered.resume_from, 300u);
}

TEST_F(CheckpointTest, RecoverySkipsIncompatibleCheckpoint) {
  const std::string dir = FreshDir("checkpoint_incompatible");
  const auto dataset = RandomStream(100, 4);
  auto engine = MakeEngine(3);
  for (const auto& point : dataset.points()) engine->Process(point);
  CheckpointManager manager(dir, core::CheckpointConfig{});
  ASSERT_TRUE(manager.CheckpointNow(*engine));

  // The factory builds a 2-d engine; the 3-d checkpoint parses fine but
  // must be refused and counted, leaving a fresh engine.
  const RecoveredEngine recovered =
      RecoverOrCreateEngine(dir, [] { return MakeEngine(2); });
  ASSERT_NE(recovered.engine, nullptr);
  EXPECT_FALSE(recovered.recovered);
  EXPECT_EQ(recovered.corrupt_skipped, 1u);
  EXPECT_EQ(recovered.engine->points_processed(), 0u);
}

TEST_F(CheckpointTest, RecoveryRefusesMismatchedPyramidGeometry) {
  const std::string dir = FreshDir("checkpoint_pyramid_mismatch");
  const auto dataset = RandomStream(1000, 9);
  auto engine = MakeEngine();  // pyramid defaults: alpha=2, l=3
  for (const auto& point : dataset.points()) engine->Process(point);
  CheckpointManager manager(dir, core::CheckpointConfig{});
  ASSERT_TRUE(manager.CheckpointNow(*engine));

  // Same kind and dimensions, different pyramid precision: restoring
  // would silently truncate/overfill the order rings, so the store's
  // geometry check must refuse the state and recovery must fall back to
  // a fresh engine instead of a half-restored one.
  const RecoveredEngine recovered = RecoverOrCreateEngine(dir, [] {
    core::EngineConfig options;
    options.umicro.num_micro_clusters = 20;
    options.snapshot.snapshot_every = 256;
    options.snapshot.pyramid_l = 2;
    return std::make_unique<core::UMicroEngine>(3, options);
  });
  ASSERT_NE(recovered.engine, nullptr);
  EXPECT_FALSE(recovered.recovered);
  EXPECT_EQ(recovered.corrupt_skipped, 1u);
  EXPECT_EQ(recovered.engine->points_processed(), 0u);
}

TEST_F(CheckpointTest, SequenceContinuesAcrossManagers) {
  const std::string dir = FreshDir("checkpoint_sequence");
  const auto dataset = RandomStream(100, 5);
  auto engine = MakeEngine();
  for (const auto& point : dataset.points()) engine->Process(point);

  {
    CheckpointManager first(dir, core::CheckpointConfig{});
    ASSERT_TRUE(first.CheckpointNow(*engine));
    ASSERT_TRUE(first.CheckpointNow(*engine));
  }
  CheckpointManager second(dir, core::CheckpointConfig{});
  ASSERT_TRUE(second.CheckpointNow(*engine));
  // The second manager must not reuse sequence numbers 1/2, or "newest
  // wins" would pick a stale file after a restart.
  EXPECT_NE(second.last_path().find("checkpoint-00000003"),
            std::string::npos);
  EXPECT_EQ(ListCheckpointFiles(dir).size(), 3u);
  EXPECT_EQ(ListCheckpointFiles(dir).front(), second.last_path());
}

TEST_F(CheckpointTest, WriteFailpointIsCountedNotFatal) {
  const std::string dir = FreshDir("checkpoint_write_fail");
  const auto dataset = RandomStream(100, 6);
  auto engine = MakeEngine();
  for (const auto& point : dataset.points()) engine->Process(point);
  CheckpointManager manager(dir, core::CheckpointConfig{});

  util::FailpointRegistry::Instance().Arm("checkpoint.write_fail",
                                          {.limit = 1});
  EXPECT_FALSE(manager.CheckpointNow(*engine));
  EXPECT_EQ(manager.write_failures(), 1u);
  EXPECT_EQ(manager.checkpoints_written(), 0u);
  EXPECT_TRUE(manager.last_path().empty());
  EXPECT_TRUE(ListCheckpointFiles(dir).empty());

  // The failpoint's budget is spent; the next attempt succeeds.
  EXPECT_TRUE(manager.CheckpointNow(*engine));
  EXPECT_EQ(manager.checkpoints_written(), 1u);
}

TEST_F(CheckpointTest, PruneKeepsOnlyTheNewest) {
  const std::string dir = FreshDir("checkpoint_prune");
  const auto dataset = RandomStream(100, 7);
  auto engine = MakeEngine();
  for (const auto& point : dataset.points()) engine->Process(point);

  core::CheckpointConfig config;
  config.keep_last = 2;
  CheckpointManager manager(dir, config);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(manager.CheckpointNow(*engine));

  const auto remaining = ListCheckpointFiles(dir);
  ASSERT_EQ(remaining.size(), 2u);
  EXPECT_EQ(remaining.front(), manager.last_path());
}

}  // namespace
}  // namespace umicro::resilience
