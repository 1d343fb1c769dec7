// Crash-recovery exactness suite (resilience acceptance test).
//
// The ECF statistics are additive with no hidden process state, so a run
// that is killed mid-stream and resumed from its last checkpoint must
// end bit-identical to a run that was never interrupted. This suite
// kills at three distinct stream positions and asserts exactly that, for
// BOTH engines: the "crash" destroys the engine object so the only
// surviving state is the checkpoint file, recovery rebuilds the engine
// through the production RecoverOrCreateEngine path, and the remainder
// of the stream is replayed from resume_from -- no point double-counted,
// none lost.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "io/state_io.h"
#include "parallel/parallel_engine.h"
#include "resilience/checkpoint.h"
#include "stream/dataset.h"
#include "util/random.h"

namespace umicro::resilience {
namespace {

constexpr std::size_t kStreamLength = 4096;
constexpr std::size_t kDims = 4;

stream::Dataset RandomStream(std::uint64_t seed) {
  util::Rng rng(seed);
  stream::Dataset dataset(kDims);
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    const int cls = static_cast<int>(rng.NextBounded(4));
    std::vector<double> values(kDims);
    std::vector<double> errors(kDims);
    for (std::size_t j = 0; j < kDims; ++j) {
      values[j] = cls * 4.0 + rng.Gaussian(0.0, 0.6);
      errors[j] = rng.Uniform(0.0, 0.4);
    }
    dataset.Add(stream::UncertainPoint(std::move(values), std::move(errors),
                                       static_cast<double>(i), cls));
  }
  return dataset;
}

std::unique_ptr<core::ClusteringEngine> MakeSequential() {
  core::EngineConfig options;
  options.umicro.num_micro_clusters = 25;
  options.snapshot.snapshot_every = 512;
  return std::make_unique<core::UMicroEngine>(kDims, options);
}

std::unique_ptr<core::ClusteringEngine> MakeSharded() {
  parallel::ParallelEngineOptions options;
  options.sharded.umicro.num_micro_clusters = 25;
  options.sharded.num_shards = 2;
  options.sharded.merge_every = 512;
  options.sharded.producer_batch = 32;
  options.snapshot.snapshot_every = 1024;
  return std::make_unique<parallel::ParallelUMicroEngine>(kDims, options);
}

/// A fresh, empty checkpoint directory unique to `name`.
std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  for (const std::string& path : ListCheckpointFiles(dir)) {
    std::remove(path.c_str());
  }
  return dir;
}

/// The engine's durable state as a canonical string, gauges dropped.
/// Gauges include timing-dependent high-water marks (queue occupancy
/// peaks depend on worker scheduling), so they are excluded from the
/// bit-identity assertion; everything else -- per-shard ECFs, the merged
/// global view, clocks, snapshot store, event counters -- must match.
std::string DurableStateString(core::ClusteringEngine& engine) {
  core::EngineState state = engine.ExportEngineState();
  state.gauges.clear();
  return io::EngineStateToString(state);
}

void RunCrashRecoveryAt(
    std::size_t kill_point, const std::string& dir_name,
    const std::function<std::unique_ptr<core::ClusteringEngine>()>& factory,
    bool flush_reference_at_kill) {
  SCOPED_TRACE("kill at " + std::to_string(kill_point));
  const stream::Dataset dataset = RandomStream(0xc0ffee);
  const std::string dir =
      FreshDir(dir_name + "_" + std::to_string(kill_point));

  // Reference run: never interrupted. For the sharded engine the
  // reference flushes at the kill point, mirroring the drain + merge a
  // checkpoint performs there -- merge scheduling is part of the
  // pipeline's trajectory, and the exactness claim is about the crash,
  // not about when merges happen.
  std::unique_ptr<core::ClusteringEngine> reference = factory();
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (flush_reference_at_kill && i == kill_point) reference->Flush();
    reference->Process(dataset[i]);
  }
  reference->Flush();

  // Crashing run: checkpoint at the kill point, then "crash" (destroy
  // the engine -- the checkpoint file is all that survives).
  {
    std::unique_ptr<core::ClusteringEngine> victim = factory();
    CheckpointManager manager(dir, core::CheckpointConfig{});
    for (std::size_t i = 0; i < kill_point; ++i) {
      victim->Process(dataset[i]);
    }
    ASSERT_TRUE(manager.CheckpointNow(*victim));
  }

  // Recover and replay the remainder.
  RecoveredEngine recovered = RecoverOrCreateEngine(dir, factory);
  ASSERT_TRUE(recovered.recovered);
  ASSERT_EQ(recovered.resume_from, kill_point);
  for (std::size_t i = kill_point; i < dataset.size(); ++i) {
    recovered.engine->Process(dataset[i]);
  }
  recovered.engine->Flush();

  // No point lost, none double-counted ...
  EXPECT_EQ(recovered.engine->points_processed(), dataset.size());
  EXPECT_EQ(reference->points_processed(), dataset.size());
  // ... and the full durable state is bit-identical.
  EXPECT_EQ(DurableStateString(*recovered.engine),
            DurableStateString(*reference));
}

class CrashRecoveryTest : public testing::TestWithParam<std::size_t> {};

TEST_P(CrashRecoveryTest, SequentialEngineResumesExactly) {
  RunCrashRecoveryAt(GetParam(), "crash_seq", MakeSequential,
                     /*flush_reference_at_kill=*/false);
}

TEST_P(CrashRecoveryTest, ShardedEngineResumesExactly) {
  RunCrashRecoveryAt(GetParam(), "crash_sharded", MakeSharded,
                     /*flush_reference_at_kill=*/true);
}

INSTANTIATE_TEST_SUITE_P(KillPoints, CrashRecoveryTest,
                         testing::Values(kStreamLength / 4,
                                         kStreamLength / 2,
                                         3 * kStreamLength / 4));

}  // namespace
}  // namespace umicro::resilience
