// The checkpoint-directory protocol both checkpointers follow: file
// sequence numbers continue past what a restarted process finds on
// disk, `keep_last` prunes the oldest files (and, for the fleet, only
// the tenant files no surviving manifest references), names that are
// not "<prefix><digits><suffix>" are ignored by the scan and by
// recovery, and the points/seconds cadence advances even when a write
// fails.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/engine.h"
#include "fleet/engine_fleet.h"
#include "fleet/fleet_checkpoint.h"
#include "resilience/checkpoint.h"
#include "stream/point.h"
#include "util/failpoints.h"

namespace umicro {
namespace {

constexpr std::size_t kDims = 2;

stream::UncertainPoint PointAt(std::size_t i) {
  const double x = static_cast<double>(i % 7);
  return stream::UncertainPoint({x, 2.0 * x}, {0.1, 0.2},
                                static_cast<double>(i), 0);
}

/// A fresh, empty directory unique to `name` and this process.
std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/checkpoint_dir_" + name +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

/// Every file name in `dir`, sorted.
std::set<std::string> Listing(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

void Touch(const std::string& dir, const std::string& name) {
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/" + name) << "not a checkpoint\n";
}

/// Names a scan must not take for series files: an empty or non-numeric
/// sequence, one that overflows 64 bits, and an unfinished atomic write.
std::vector<std::string> MalformedNames(const std::string& prefix,
                                        const std::string& suffix) {
  return {prefix + suffix, prefix + "12x" + suffix,
          prefix + "1234567890123456789012345" + suffix,
          prefix + "3" + suffix + ".tmp"};
}

std::unique_ptr<core::ClusteringEngine> MakeEngine() {
  core::EngineConfig config;
  config.umicro.num_micro_clusters = 8;
  config.snapshot.snapshot_every = 16;
  return std::make_unique<core::UMicroEngine>(kDims, config);
}

core::EngineConfig FleetConfig() {
  core::EngineConfig config;
  config.umicro.num_micro_clusters = 8;
  config.fleet.tenants = 2;
  config.fleet.workers = 2;
  return config;
}

class CheckpointDirTest : public testing::Test {
 protected:
  void TearDown() override {
    util::FailpointRegistry::Instance().DisarmAll();
  }
};

// ---- Engine checkpoints ------------------------------------------------

TEST_F(CheckpointDirTest, EngineSequenceAndPruningContinueAfterRestart) {
  const std::string dir = FreshDir("engine_restart");
  auto engine = MakeEngine();
  for (std::size_t i = 0; i < 40; ++i) engine->Process(PointAt(i));
  core::CheckpointConfig config;
  config.keep_last = 2;
  {
    resilience::CheckpointManager first(dir, config);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(first.CheckpointNow(*engine));
  }
  resilience::CheckpointManager second(dir, config);
  ASSERT_TRUE(second.CheckpointNow(*engine));
  EXPECT_EQ(second.last_path(), dir + "/checkpoint-00000004.uckpt");
  ASSERT_TRUE(second.CheckpointNow(*engine));
  EXPECT_EQ(Listing(dir), (std::set<std::string>{
                              "checkpoint-00000004.uckpt",
                              "checkpoint-00000005.uckpt"}));
  EXPECT_EQ(resilience::ListCheckpointFiles(dir),
            (std::vector<std::string>{dir + "/checkpoint-00000005.uckpt",
                                      dir + "/checkpoint-00000004.uckpt"}));
}

TEST_F(CheckpointDirTest, EngineScanAndRecoveryIgnoreMalformedNames) {
  const std::string dir = FreshDir("engine_malformed");
  std::set<std::string> malformed;
  for (const std::string& name : MalformedNames("checkpoint-", ".uckpt")) {
    Touch(dir, name);
    malformed.insert(name);
  }
  EXPECT_TRUE(resilience::ListCheckpointFiles(dir).empty());
  const resilience::RecoveredEngine fresh =
      resilience::RecoverOrCreateEngine(dir, [] { return MakeEngine(); });
  EXPECT_FALSE(fresh.recovered);
  EXPECT_EQ(fresh.corrupt_skipped, 0u);

  auto engine = MakeEngine();
  for (std::size_t i = 0; i < 40; ++i) engine->Process(PointAt(i));
  core::CheckpointConfig config;
  config.keep_last = 1;
  resilience::CheckpointManager manager(dir, config);
  ASSERT_TRUE(manager.CheckpointNow(*engine));
  EXPECT_EQ(manager.last_path(), dir + "/checkpoint-00000001.uckpt");
  ASSERT_TRUE(manager.CheckpointNow(*engine));

  // Pruning removed the first checkpoint and none of the foreign files.
  std::set<std::string> expected = malformed;
  expected.insert("checkpoint-00000002.uckpt");
  EXPECT_EQ(Listing(dir), expected);
  const resilience::RecoveredEngine recovered =
      resilience::RecoverOrCreateEngine(dir, [] { return MakeEngine(); });
  ASSERT_TRUE(recovered.recovered);
  EXPECT_EQ(recovered.corrupt_skipped, 0u);
  EXPECT_EQ(recovered.checkpoint_path, manager.last_path());
  EXPECT_EQ(recovered.resume_from, 40u);
}

TEST_F(CheckpointDirTest, SignedOrSpacedSequencesAreNotSeriesFiles) {
  // strtoull alone would read these as sequences 5, 2^64 - 1 and 7.
  const std::string dir = FreshDir("engine_signed");
  for (const std::string& name :
       {"checkpoint-+5.uckpt", "checkpoint--1.uckpt", "checkpoint- 7.uckpt"}) {
    Touch(dir, name);
  }
  EXPECT_TRUE(resilience::ListCheckpointFiles(dir).empty());
  auto engine = MakeEngine();
  engine->Process(PointAt(0));
  resilience::CheckpointManager manager(dir, core::CheckpointConfig{});
  ASSERT_TRUE(manager.CheckpointNow(*engine));
  EXPECT_EQ(manager.last_path(), dir + "/checkpoint-00000001.uckpt");
  const resilience::RecoveredEngine recovered =
      resilience::RecoverOrCreateEngine(dir, [] { return MakeEngine(); });
  ASSERT_TRUE(recovered.recovered);
  EXPECT_EQ(recovered.corrupt_skipped, 0u);
}

TEST_F(CheckpointDirTest, EngineSecondsCadenceAdvancesAfterAFailedWrite) {
  const std::string dir = FreshDir("engine_seconds");
  auto engine = MakeEngine();
  engine->Process(PointAt(0));
  core::CheckpointConfig config;
  config.every_seconds = 0.3;
  resilience::CheckpointManager manager(dir, config);
  const auto period = std::chrono::milliseconds(400);

  EXPECT_FALSE(manager.MaybeCheckpoint(*engine));
  std::this_thread::sleep_for(period);
  EXPECT_TRUE(manager.MaybeCheckpoint(*engine));
  EXPECT_FALSE(manager.MaybeCheckpoint(*engine));
  EXPECT_EQ(manager.checkpoints_written(), 1u);

  std::this_thread::sleep_for(period);
  util::FailpointRegistry::Instance().Arm("checkpoint.write_fail");
  EXPECT_FALSE(manager.MaybeCheckpoint(*engine));
  EXPECT_EQ(manager.write_failures(), 1u);
  // The failed attempt restarted the interval: no retry on the next call.
  EXPECT_FALSE(manager.MaybeCheckpoint(*engine));
  EXPECT_EQ(manager.write_failures(), 1u);
  util::FailpointRegistry::Instance().DisarmAll();

  std::this_thread::sleep_for(period);
  EXPECT_TRUE(manager.MaybeCheckpoint(*engine));
  EXPECT_EQ(manager.checkpoints_written(), 2u);
}

// ---- Fleet checkpoints -------------------------------------------------

TEST_F(CheckpointDirTest, FleetSequenceContinuesAfterRestart) {
  const std::string dir = FreshDir("fleet_restart");
  const core::EngineConfig config = FleetConfig();
  fleet::EngineFleet fleet(kDims, config);
  std::size_t i = 0;
  {
    fleet::FleetCheckpointer first(dir, config.checkpoint);
    EXPECT_EQ(first.last_seq(), 0u);
    for (int pass = 0; pass < 2; ++pass) {
      for (int k = 0; k < 10; ++k, ++i) fleet.Ingest(i % 2, PointAt(i));
      ASSERT_TRUE(first.CheckpointNow(fleet));
    }
    EXPECT_EQ(first.last_seq(), 2u);
  }
  fleet::FleetCheckpointer second(dir, config.checkpoint);
  EXPECT_EQ(second.last_seq(), 2u);
  for (int k = 0; k < 10; ++k, ++i) fleet.Ingest(i % 2, PointAt(i));
  ASSERT_TRUE(second.CheckpointNow(fleet));
  EXPECT_EQ(second.last_seq(), 3u);
  EXPECT_EQ(fleet::ListFleetManifestFiles(dir).front(),
            dir + "/manifest-00000003.ufm");
  EXPECT_EQ(Listing(dir).count("tenant-1-00000003.uckpt"), 1u);
}

TEST_F(CheckpointDirTest, FleetPruneSweepsOnlyUnreferencedTenantFiles) {
  const std::string dir = FreshDir("fleet_prune");
  core::EngineConfig config = FleetConfig();
  config.checkpoint.keep_last = 2;
  std::size_t i = 0;
  {
    fleet::EngineFleet fleet(kDims, config);
    fleet::FleetCheckpointer checkpointer(dir, config.checkpoint);
    for (int k = 0; k < 10; ++k, ++i) fleet.Ingest(i % 2, PointAt(i));
    ASSERT_TRUE(checkpointer.CheckpointNow(fleet));
    // Passes 2..5 move tenant 0 only: tenant 1's pass-1 file stays the
    // one every later manifest names.
    for (int pass = 2; pass <= 5; ++pass) {
      for (int k = 0; k < 5; ++k, ++i) fleet.Ingest(0, PointAt(i));
      ASSERT_TRUE(checkpointer.CheckpointNow(fleet));
      EXPECT_EQ(checkpointer.last_dirty_count(), 1u);
    }
  }
  EXPECT_EQ(Listing(dir), (std::set<std::string>{
                              "manifest-00000004.ufm",
                              "manifest-00000005.ufm",
                              "tenant-0-00000004.uckpt",
                              "tenant-0-00000005.uckpt",
                              "tenant-1-00000001.uckpt"}));
  fleet::RecoveredFleet recovered = fleet::RecoverOrCreateFleet(
      dir, kDims, config);
  ASSERT_TRUE(recovered.recovered);
  EXPECT_EQ(recovered.manifest_seq, 5u);
  EXPECT_EQ(recovered.tenants_restored, 2u);
  EXPECT_EQ(recovered.corrupt_skipped, 0u);
  EXPECT_EQ(recovered.fleet->TenantPoints(0), 25u);
  EXPECT_EQ(recovered.fleet->TenantPoints(1), 5u);
}

TEST_F(CheckpointDirTest, FleetScanAndRecoveryIgnoreMalformedNames) {
  const std::string dir = FreshDir("fleet_malformed");
  std::set<std::string> malformed;
  for (const std::string& name : MalformedNames("manifest-", ".ufm")) {
    Touch(dir, name);
    malformed.insert(name);
  }
  core::EngineConfig config = FleetConfig();
  config.checkpoint.keep_last = 1;
  EXPECT_TRUE(fleet::ListFleetManifestFiles(dir).empty());
  fleet::RecoveredFleet fresh =
      fleet::RecoverOrCreateFleet(dir, kDims, config);
  EXPECT_FALSE(fresh.recovered);
  EXPECT_EQ(fresh.manifests_skipped, 0u);

  fleet::EngineFleet fleet(kDims, config);
  fleet::FleetCheckpointer checkpointer(dir, config.checkpoint);
  EXPECT_EQ(checkpointer.last_seq(), 0u);
  std::size_t i = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int k = 0; k < 10; ++k, ++i) fleet.Ingest(i % 2, PointAt(i));
    ASSERT_TRUE(checkpointer.CheckpointNow(fleet));
  }
  EXPECT_EQ(checkpointer.last_seq(), 2u);

  std::set<std::string> expected = malformed;
  expected.insert({"manifest-00000002.ufm", "tenant-0-00000002.uckpt",
                   "tenant-1-00000002.uckpt"});
  EXPECT_EQ(Listing(dir), expected);
  fleet::RecoveredFleet recovered =
      fleet::RecoverOrCreateFleet(dir, kDims, config);
  ASSERT_TRUE(recovered.recovered);
  EXPECT_EQ(recovered.manifest_seq, 2u);
  EXPECT_EQ(recovered.manifests_skipped, 0u);
  EXPECT_EQ(recovered.tenants_restored, 2u);
}

TEST_F(CheckpointDirTest, FleetSecondsCadenceAdvancesAfterAFailedWrite) {
  const std::string dir = FreshDir("fleet_seconds");
  core::EngineConfig config = FleetConfig();
  config.checkpoint.every_seconds = 0.3;
  fleet::EngineFleet fleet(kDims, config);
  fleet::FleetCheckpointer checkpointer(dir, config.checkpoint);
  const auto period = std::chrono::milliseconds(400);
  std::size_t i = 0;

  fleet.Ingest(0, PointAt(i++));
  EXPECT_FALSE(checkpointer.MaybeCheckpoint(fleet));
  std::this_thread::sleep_for(period);
  EXPECT_TRUE(checkpointer.MaybeCheckpoint(fleet));
  EXPECT_FALSE(checkpointer.MaybeCheckpoint(fleet));
  EXPECT_EQ(checkpointer.checkpoints_written(), 1u);

  // A dirty tenant makes the next pass write a tenant file, which the
  // failpoint fails.
  fleet.Ingest(1, PointAt(i++));
  std::this_thread::sleep_for(period);
  util::FailpointRegistry::Instance().Arm("checkpoint.write_fail");
  EXPECT_FALSE(checkpointer.MaybeCheckpoint(fleet));
  EXPECT_EQ(checkpointer.write_failures(), 1u);
  EXPECT_FALSE(checkpointer.MaybeCheckpoint(fleet));
  EXPECT_EQ(checkpointer.write_failures(), 1u);
  util::FailpointRegistry::Instance().DisarmAll();

  std::this_thread::sleep_for(period);
  EXPECT_TRUE(checkpointer.MaybeCheckpoint(fleet));
  EXPECT_EQ(checkpointer.checkpoints_written(), 2u);
  EXPECT_EQ(checkpointer.last_seq(), 2u);
}

}  // namespace
}  // namespace umicro
