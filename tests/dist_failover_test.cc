// Failover + liveness tests for the distributed merge tree (src/dist,
// src/net): standby aggregator promotion, exactness of the standby's
// post-promotion answers under network chaos, degraded (stale-leaf)
// serving, and the aggregator's slow-loris hang-up.
//
// The load-bearing assertion mirrors dist_topology_test's: after the
// primary aggregator is killed mid-stream -- with ChaosTransport
// dropping, truncating, bit-flipping, and partitioning the wire -- the
// standby's merged view is byte-identical to the single-process sharded
// reference over the same stream. State-replacement deltas make every
// retry idempotent, so no fault mix can corrupt the final state, only
// delay it.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "dist/aggregator.h"
#include "dist/leaf.h"
#include "io/state_io.h"
#include "net/chaos.h"
#include "net/socket.h"
#include "net/socket_stream.h"
#include "obs/metrics.h"
#include "parallel/parallel_engine.h"
#include "stream/dataset.h"
#include "synth/workloads.h"

namespace umicro::dist {
namespace {

/// Disables the process-wide chaos layer on scope exit, so an assertion
/// failure inside a chaos test cannot poison the tests after it.
struct ChaosGuard {
  explicit ChaosGuard(const net::ChaosOptions& options) {
    net::ChaosTransport::Instance().Enable(options);
  }
  ~ChaosGuard() { net::ChaosTransport::Instance().Disable(); }
};

core::EngineConfig LeafEngineOptions() {
  core::EngineConfig options;
  options.umicro.num_micro_clusters = 40;
  options.snapshot.snapshot_every = 0;
  return options;
}

AggregatorOptions MatchingAggregatorOptions(std::size_t dimensions) {
  const core::EngineConfig engine = LeafEngineOptions();
  AggregatorOptions options;
  options.dimensions = dimensions;
  options.dimension_threshold = engine.umicro.dimension_threshold;
  options.global_budget = engine.umicro.num_micro_clusters;
  options.snapshot = engine.snapshot;
  return options;
}

std::string Canonical(const core::LabeledFrame& clusters,
                      std::size_t dimensions) {
  return io::MicroClustersToString(clusters, dimensions);
}

core::LabeledFrame ShardedReference(
    const stream::Dataset& dataset, std::size_t shards) {
  parallel::ParallelEngineOptions options;
  options.sharded.umicro = LeafEngineOptions().umicro;
  options.sharded.num_shards = shards;
  options.sharded.producer_batch = 1;
  options.sharded.merge_every = 0;
  options.snapshot.snapshot_every = 0;
  parallel::ParallelUMicroEngine sharded(dataset.dimensions(), options);
  for (const auto& point : dataset.points()) sharded.Process(point);
  sharded.Flush();
  return sharded.GlobalClusters();
}

/// Exports the engine state a leaf would have after its round-robin
/// substream `leaf_id mod stride` of the dataset.
std::string LeafStateText(const stream::Dataset& dataset,
                          std::uint64_t leaf_id, std::size_t stride,
                          std::uint64_t* points_done) {
  core::UMicroEngine engine(dataset.dimensions(), LeafEngineOptions());
  std::uint64_t done = 0;
  for (std::size_t i = 0; i < dataset.points().size(); ++i) {
    if (i % stride != leaf_id) continue;
    engine.Process(dataset.points()[i]);
    ++done;
  }
  engine.Flush();
  *points_done = done;
  return io::EngineStateToString(engine.ExportEngineState());
}

/// Polls `predicate` until it holds or `timeout_ms` elapses.
bool WaitUntil(int timeout_ms, const std::function<bool()>& predicate) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

TEST(DistFailoverTest, PrimaryKilledUnderChaosStandbyMatchesReference) {
  // The acceptance check: primary dies mid-stream while the wire drops,
  // truncates, bit-flips, delays, and partitions; the standby's merged
  // view must still end byte-identical to the uninterrupted reference.
  const stream::Dataset dataset =
      synth::MakeSynDriftWorkload(5000, 0.5, 91);
  const std::size_t total = dataset.points().size();
  const std::size_t dims = dataset.dimensions();

  auto primary = std::make_unique<Aggregator>(MatchingAggregatorOptions(dims));
  ASSERT_TRUE(primary->Start());
  AggregatorOptions standby_options = MatchingAggregatorOptions(dims);
  standby_options.start_as_standby = true;
  Aggregator standby(standby_options);
  ASSERT_TRUE(standby.Start());
  EXPECT_EQ(standby.role(), "standby");

  net::ChaosOptions chaos;
  chaos.seed = 0xfa110ffu;
  chaos.drop_probability = 0.05;
  chaos.delay_probability = 0.05;
  chaos.delay_ms = 5;
  chaos.truncate_probability = 0.03;
  chaos.bitflip_probability = 0.03;
  chaos.partition_probability = 0.05;
  chaos.partition_ms = 100;
  const ChaosGuard guard(chaos);

  std::atomic<std::uint64_t> promotions{0};
  const auto run_leaf = [&](std::uint64_t leaf_id) {
    core::UMicroEngine engine(dims, LeafEngineOptions());
    LeafShipperOptions options;
    options.leaf_id = leaf_id;
    options.dimensions = dims;
    options.ack_timeout_ms = 500;
    options.backoff.base_ms = 20;
    options.backoff.max_ms = 200;
    options.standbys = {{"127.0.0.1", standby.port()}};
    LeafShipper shipper({"127.0.0.1", primary->port()}, options);
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < dataset.points().size(); ++i) {
      if (i % 2 != leaf_id) continue;
      engine.Process(dataset.points()[i]);
      ++done;
      if (done % 250 == 0) {
        ASSERT_TRUE(shipper.ShipState(
            done, done,
            io::EngineStateToString(engine.ExportEngineState())));
      }
    }
    engine.Flush();
    ASSERT_TRUE(shipper.ShipState(
        done, done, io::EngineStateToString(engine.ExportEngineState())));
    shipper.Finish();
    promotions.fetch_add(shipper.promotions());
  };

  std::thread leaf0([&] { run_leaf(0); });
  std::thread leaf1([&] { run_leaf(1); });

  // Kill the primary once it has demonstrably participated; plenty of
  // deltas remain, so the leaves must finish the stream on the standby.
  ASSERT_TRUE(WaitUntil(20000, [&] {
    return primary->deltas_applied() >= 4;
  }));
  primary->Stop();
  primary.reset();

  leaf0.join();
  leaf1.join();
  ASSERT_TRUE(standby.WaitForPoints(total, 20000));

  // The leaves failed over: their primary-flagged deltas promoted the
  // standby.
  EXPECT_TRUE(standby.is_primary());
  EXPECT_GE(promotions.load(), 1u);

  const std::string reference =
      Canonical(ShardedReference(dataset, 2), dims);
  EXPECT_EQ(Canonical(standby.MergedClusters(), dims), reference);
  EXPECT_EQ(standby.leaves_known(), 2u);
  standby.Stop();
}

TEST(DistFailoverTest, WarmShippedDeltasReachStandbyWithoutPromotingIt) {
  const stream::Dataset dataset = synth::MakeSynDriftWorkload(800, 0.5, 7);
  const std::size_t dims = dataset.dimensions();
  std::uint64_t points = 0;
  const std::string state = LeafStateText(dataset, 0, 1, &points);

  auto primary = std::make_unique<Aggregator>(MatchingAggregatorOptions(dims));
  ASSERT_TRUE(primary->Start());
  AggregatorOptions standby_options = MatchingAggregatorOptions(dims);
  standby_options.start_as_standby = true;
  Aggregator standby(standby_options);
  ASSERT_TRUE(standby.Start());

  LeafShipperOptions options;
  options.leaf_id = 0;
  options.dimensions = dims;
  options.ack_timeout_ms = 500;
  options.backoff.base_ms = 20;
  options.backoff.max_ms = 200;
  options.standbys = {{"127.0.0.1", standby.port()}};
  LeafShipper shipper({"127.0.0.1", primary->port()}, options);

  // Acked by the primary, warm-shipped to the standby: both converge to
  // the same merged view, but only the primary path carries the primary
  // flag, so the standby stays a standby.
  ASSERT_TRUE(shipper.ShipState(points, points, state));
  ASSERT_TRUE(WaitUntil(5000, [&] {
    return standby.deltas_applied() >= 1;
  }));
  EXPECT_EQ(standby.role(), "standby");
  EXPECT_EQ(primary->role(), "primary");
  EXPECT_EQ(Canonical(standby.MergedClusters(), dims),
            Canonical(primary->MergedClusters(), dims));
  EXPECT_EQ(shipper.promotions(), 0u);

  // Primary dies; the next delta fails over, promotes the standby in
  // the shipping order AND in the standby's own role.
  primary->Stop();
  primary.reset();
  ASSERT_TRUE(shipper.ShipState(points + 1, points, state));
  EXPECT_EQ(shipper.promotions(), 1u);
  EXPECT_EQ(shipper.current_primary().port, standby.port());
  ASSERT_TRUE(WaitUntil(5000, [&] { return standby.is_primary(); }));
  EXPECT_EQ(standby.role(), "primary");
  shipper.Finish();
  standby.Stop();
}

TEST(DistFailoverTest, StaleLeafIsExcludedUntilItReportsAgain) {
  const stream::Dataset dataset =
      synth::MakeSynDriftWorkload(1200, 0.5, 13);
  const std::size_t dims = dataset.dimensions();
  std::uint64_t points0 = 0, points1 = 0;
  const std::string state0 = LeafStateText(dataset, 0, 2, &points0);
  const std::string state1 = LeafStateText(dataset, 1, 2, &points1);

  obs::MetricsRegistry metrics;
  AggregatorOptions options = MatchingAggregatorOptions(dims);
  options.stale_after_ms = 300;
  Aggregator aggregator(options, &metrics);
  ASSERT_TRUE(aggregator.Start());

  LeafShipperOptions ship;
  ship.dimensions = dims;
  ship.leaf_id = 0;
  LeafShipper shipper0({"127.0.0.1", aggregator.port()}, ship);
  ship.leaf_id = 1;
  LeafShipper shipper1({"127.0.0.1", aggregator.port()}, ship);
  ASSERT_TRUE(shipper0.ShipState(1, points0, state0));
  ASSERT_TRUE(shipper1.ShipState(1, points1, state1));
  const std::string both = Canonical(aggregator.MergedClusters(), dims);
  EXPECT_FALSE(aggregator.degraded());

  // Leaf 1 finishes cleanly (BYE): silent forever after, yet never
  // stale. Leaf 0 just goes quiet: past stale_after_ms the liveness
  // plane excludes it and the view degrades to leaf 1 alone.
  shipper1.Finish();
  ASSERT_TRUE(WaitUntil(5000, [&] { return aggregator.degraded(); }));
  EXPECT_EQ(aggregator.stale_leaves(), 1u);
  EXPECT_EQ(metrics.GetGauge("dist.agg.leaf_stale").value(), 1.0);
  // Progress accounting still covers ALL leaves (--expect-points must
  // not wedge on a stale leaf)...
  EXPECT_EQ(aggregator.total_points(), points0 + points1);
  // ...but the merged view is leaf 1 alone, exactly what an aggregator
  // that never met leaf 0 would serve.
  AggregatorOptions solo_options = MatchingAggregatorOptions(dims);
  Aggregator solo(solo_options);
  ASSERT_TRUE(solo.Start());
  LeafShipperOptions solo_ship;
  solo_ship.dimensions = dims;
  solo_ship.leaf_id = 1;
  LeafShipper solo_shipper({"127.0.0.1", solo.port()}, solo_ship);
  ASSERT_TRUE(solo_shipper.ShipState(1, points1, state1));
  EXPECT_EQ(Canonical(aggregator.MergedClusters(), dims),
            Canonical(solo.MergedClusters(), dims));
  solo_shipper.Finish();
  solo.Stop();

  // The control plane surfaces the degradation over the query socket.
  {
    auto socket = net::TcpConnect({"127.0.0.1", aggregator.port()}, 2000);
    ASSERT_TRUE(socket.has_value());
    net::SocketStream stream(&*socket, 5000);
    stream << "ROLE\nHEALTH\nSTATS\nQUIT\n";
    stream.flush();
    std::string line;
    ASSERT_TRUE(static_cast<bool>(std::getline(stream, line)));
    EXPECT_EQ(line, "OK ROLE primary");
    ASSERT_TRUE(static_cast<bool>(std::getline(stream, line)));
    EXPECT_EQ(line,
              "OK HEALTH role=primary degraded=1 leaves=2 stale=1 "
              "deltas=2");
    ASSERT_TRUE(static_cast<bool>(std::getline(stream, line)));
    EXPECT_NE(line.find(" stale=1 degraded=1"), std::string::npos)
        << line;
  }

  // Leaf 0 reports again: the view recovers to the full merge.
  ASSERT_TRUE(shipper0.ShipState(2, points0, state0));
  ASSERT_TRUE(WaitUntil(5000, [&] { return !aggregator.degraded(); }));
  EXPECT_EQ(aggregator.stale_leaves(), 0u);
  EXPECT_EQ(Canonical(aggregator.MergedClusters(), dims), both);
  shipper0.Finish();
  aggregator.Stop();
}

TEST(DistFailoverTest, SlowLorisQuerySessionIsHungUpWithoutStallingLeaves) {
  const stream::Dataset dataset = synth::MakeSynDriftWorkload(600, 0.5, 3);
  const std::size_t dims = dataset.dimensions();
  std::uint64_t points = 0;
  const std::string state = LeafStateText(dataset, 0, 1, &points);

  obs::MetricsRegistry metrics;
  AggregatorOptions options = MatchingAggregatorOptions(dims);
  options.io_timeout_ms = 300;
  Aggregator aggregator(options, &metrics);
  ASSERT_TRUE(aggregator.Start());

  // Loris 1: sends one byte (classified as a query session), then goes
  // silent. Loris 2: never sends anything at all.
  auto loris = net::TcpConnect({"127.0.0.1", aggregator.port()}, 2000);
  ASSERT_TRUE(loris.has_value());
  ASSERT_TRUE(loris->SendAll("S", 1, 1000));
  auto mute = net::TcpConnect({"127.0.0.1", aggregator.port()}, 2000);
  ASSERT_TRUE(mute.has_value());

  // A leaf session sharing the aggregator is not stalled by either.
  LeafShipperOptions ship;
  ship.dimensions = dims;
  ship.leaf_id = 0;
  LeafShipper shipper({"127.0.0.1", aggregator.port()}, ship);
  ASSERT_TRUE(shipper.ShipState(1, points, state));
  shipper.Finish();

  // Both stalled sessions are disconnected (orderly EOF toward the
  // peer, not a client-side timeout) and counted as protocol errors.
  const auto expect_eof = [](net::Socket& socket) {
    char sink[256];
    bool timed_out = false;
    long n;
    do {
      n = socket.RecvSome(sink, sizeof(sink), 5000, &timed_out);
    } while (n > 0);
    EXPECT_EQ(n, 0);
    EXPECT_FALSE(timed_out);
  };
  expect_eof(*loris);
  expect_eof(*mute);
  EXPECT_GE(metrics.GetCounter("dist.agg.protocol_errors").value(), 2u);
  EXPECT_EQ(aggregator.deltas_applied(), 1u);
  aggregator.Stop();
}

}  // namespace
}  // namespace umicro::dist
