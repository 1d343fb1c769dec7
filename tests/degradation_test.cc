// Tests for graceful overload degradation: adaptive load shedding and
// supervisor-driven worker restarts in the sharded pipeline.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>

#include <gtest/gtest.h>

#include "parallel/parallel_engine.h"
#include "stream/point.h"
#include "util/failpoints.h"
#include "util/random.h"

namespace umicro::parallel {
namespace {

stream::UncertainPoint MakePoint(util::Rng& rng, std::size_t i) {
  const int cls = static_cast<int>(rng.NextBounded(3));
  return stream::UncertainPoint(
      {cls * 5.0 + rng.Gaussian(0.0, 0.5), rng.Gaussian(0.0, 0.5)},
      {0.1, 0.1}, static_cast<double>(i), cls);
}

/// The sharded engine over `options` with the snapshot cadence off: the
/// bare ingest pipeline.
ParallelEngineOptions WithoutSnapshots(const ShardedUMicroOptions& options) {
  ParallelEngineOptions engine;
  engine.sharded = options;
  engine.snapshot.snapshot_every = 0;
  return engine;
}

class DegradationTest : public testing::Test {
 protected:
  void TearDown() override {
    util::FailpointRegistry::Instance().DisarmAll();
  }
};

TEST_F(DegradationTest, ShedsWholeBatchesUnderSustainedPressure) {
  ShardedUMicroOptions options;
  options.umicro.num_micro_clusters = 10;
  options.num_shards = 1;
  options.queue_capacity = 2;
  options.producer_batch = 8;
  options.merge_every = 0;  // merge only on Flush
  options.degrade.enabled = true;
  options.degrade.occupancy_trigger = 0.5;
  options.degrade.trigger_after = 4;
  options.degrade.recover_after = 8;
  options.degrade.shed_probability = 1.0;  // deterministic while degraded
  ParallelUMicroEngine sharded(2, WithoutSnapshots(options));

  // A stalling worker makes the queue back up; the controller must go
  // degraded and shed instead of blocking ingest forever.
  util::FailpointRegistry::Instance().Arm("parallel.worker.stall",
                                          {.stall_millis = 5});
  util::Rng rng(1);
  for (std::size_t i = 0; i < 2000; ++i) {
    sharded.Process(MakePoint(rng, i));
  }
  util::FailpointRegistry::Instance().DisarmAll();
  sharded.Flush();

  const std::uint64_t shed_points =
      sharded.metrics().GetCounter("parallel.degrade.points_shed").value();
  const std::uint64_t shed_batches =
      sharded.metrics().GetCounter("parallel.degrade.batches_shed").value();
  const std::uint64_t activations =
      sharded.metrics().GetCounter("parallel.degrade.activations").value();
  EXPECT_GT(activations, 0u);
  EXPECT_GT(shed_points, 0u);
  EXPECT_GT(shed_batches, 0u);
  EXPECT_EQ(shed_points % options.producer_batch, 0u)
      << "whole batches are shed";
  // Every point was either processed by the shard or shed -- the
  // accounting never loses or double-counts.
  const std::uint64_t processed =
      sharded.metrics().GetCounter("parallel.shard0.points").value();
  EXPECT_EQ(processed + shed_points, 2000u);
}

TEST_F(DegradationTest, RecoversOnceThePressureIsGone) {
  // A roomy queue and a high trigger keep the occupancy signal well
  // clear of the threshold in normal operation, so recovery is stable.
  ShardedUMicroOptions options;
  options.umicro.num_micro_clusters = 10;
  options.num_shards = 1;
  options.queue_capacity = 16;
  options.producer_batch = 64;
  options.merge_every = 0;
  options.degrade.enabled = true;
  options.degrade.occupancy_trigger = 0.9;
  options.degrade.trigger_after = 4;
  options.degrade.recover_after = 4;
  options.degrade.shed_probability = 1.0;
  ParallelUMicroEngine sharded(2, WithoutSnapshots(options));

  util::FailpointRegistry::Instance().Arm("parallel.worker.stall",
                                          {.stall_millis = 10});
  util::Rng rng(5);
  std::size_t i = 0;
  for (; i < 4096; ++i) sharded.Process(MakePoint(rng, i));
  EXPECT_TRUE(sharded.degraded());
  EXPECT_GT(
      sharded.metrics().GetCounter("parallel.degrade.points_shed").value(),
      0u);

  // Pressure gone: the stalled batches drain, and sustained calm
  // enqueues (recover_after of them) deactivate degraded mode. The
  // producer is paced below the worker's throughput here -- an unpaced
  // producer can genuinely outrun the worker and re-trigger degraded
  // mode, which is the controller doing its job, not recovering.
  util::FailpointRegistry::Instance().DisarmAll();
  sharded.Flush();
  const std::uint64_t processed_before_calm =
      sharded.metrics().GetCounter("parallel.shard0.points").value();
  for (; i < 6144; ++i) {
    sharded.Process(MakePoint(rng, i));
    if (i % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  sharded.Flush();
  EXPECT_FALSE(sharded.degraded());
  EXPECT_EQ(
      sharded.metrics().GetGauge("parallel.degrade.active").value(), 0.0);
  // Post-recovery traffic is processed again, not shed.
  EXPECT_GT(sharded.metrics().GetCounter("parallel.shard0.points").value(),
            processed_before_calm);
}

TEST_F(DegradationTest, DisabledControllerNeverSheds) {
  ShardedUMicroOptions options;
  options.umicro.num_micro_clusters = 10;
  options.num_shards = 1;
  options.queue_capacity = 2;
  options.producer_batch = 8;
  options.merge_every = 0;
  ParallelUMicroEngine sharded(2, WithoutSnapshots(options));

  util::FailpointRegistry::Instance().Arm("parallel.worker.stall",
                                          {.stall_millis = 2});
  util::Rng rng(2);
  for (std::size_t i = 0; i < 500; ++i) {
    sharded.Process(MakePoint(rng, i));
  }
  util::FailpointRegistry::Instance().DisarmAll();
  sharded.Flush();
  // kBlock without degradation is lossless, whatever the pressure.
  EXPECT_EQ(
      sharded.metrics().GetCounter("parallel.degrade.points_shed").value(),
      0u);
  EXPECT_EQ(sharded.metrics().GetCounter("parallel.shard0.points").value(),
            500u);
}

TEST_F(DegradationTest, SupervisorRestartsDeadWorkerWithoutLosingPoints) {
  ShardedUMicroOptions options;
  options.umicro.num_micro_clusters = 10;
  options.num_shards = 2;
  options.queue_capacity = 8;
  options.producer_batch = 16;
  options.merge_every = 0;
  options.supervisor.enabled = true;
  options.supervisor.poll_millis = 1;
  ParallelUMicroEngine sharded(2, WithoutSnapshots(options));

  // Shard 0's worker dies on its first batch, with that batch popped
  // and in flight -- the worst moment.
  util::FailpointRegistry::Instance().Arm("parallel.worker0.death",
                                          {.limit = 1});
  util::Rng rng(3);
  for (std::size_t i = 0; i < 2000; ++i) {
    sharded.Process(MakePoint(rng, i));
  }
  // Flush blocks until every in-flight point is processed; it can only
  // return because the supervisor revived the shard and applied the
  // orphaned batch.
  sharded.Flush();

  EXPECT_EQ(sharded.worker_restarts(), 1u);
  const std::uint64_t shard0 =
      sharded.metrics().GetCounter("parallel.shard0.points").value();
  const std::uint64_t shard1 =
      sharded.metrics().GetCounter("parallel.shard1.points").value();
  // Round-robin split, no point lost, none double-counted.
  EXPECT_EQ(shard0, 1000u);
  EXPECT_EQ(shard1, 1000u);
}

TEST_F(DegradationTest, SupervisorSurvivesRepeatedDeaths) {
  ShardedUMicroOptions options;
  options.umicro.num_micro_clusters = 10;
  options.num_shards = 1;
  options.queue_capacity = 8;
  options.producer_batch = 16;
  options.merge_every = 0;
  options.supervisor.enabled = true;
  options.supervisor.poll_millis = 1;
  ParallelUMicroEngine sharded(2, WithoutSnapshots(options));

  // The worker dies on pops 3, 4, and 5 -- the second and third deaths
  // hit freshly restarted replacements on their very first batch, with
  // the queue full behind them (the regression that once deadlocked
  // supervisor, coordinator, and queue).
  util::FailpointRegistry::Instance().Arm("parallel.worker.death",
                                          {.skip = 2, .limit = 3});
  util::Rng rng(4);
  for (std::size_t i = 0; i < 3000; ++i) {
    sharded.Process(MakePoint(rng, i));
  }
  sharded.Flush();
  util::FailpointRegistry::Instance().DisarmAll();

  EXPECT_EQ(sharded.worker_restarts(), 3u);
  EXPECT_EQ(sharded.metrics().GetCounter("parallel.shard0.points").value(),
            3000u);
}

}  // namespace
}  // namespace umicro::parallel
