// Distributed merge-tree tests (src/dist): protocol payload parsing
// under hostile input, and in-process multi-leaf topologies over real
// loopback sockets.
//
// The load-bearing assertions:
//   * bit-identity -- two leaves shipping round-robin substreams yield a
//     merged view byte-identical (canonical "uclusters 1" dump) to the
//     in-process sharded engine over the same stream;
//   * exactly-once application -- re-sent and replayed deltas are acked
//     but change nothing;
//   * crash recovery -- a leaf killed mid-stream and restarted from its
//     last checkpoint converges to the same merged state;
//   * straggler handling -- a mute aggregator triggers timeout-bounded
//     re-sends, not a hang;
//   * query parity -- answers over the remote line protocol equal the
//     in-process broker's, byte for byte.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/snapshot.h"
#include "dist/aggregator.h"
#include "dist/leaf.h"
#include "dist/protocol.h"
#include "io/state_io.h"
#include "net/socket.h"
#include "net/socket_stream.h"
#include "obs/metrics.h"
#include "parallel/parallel_engine.h"
#include "serve/server.h"
#include "stream/dataset.h"
#include "synth/workloads.h"

namespace umicro::dist {
namespace {

TEST(DistProtocolTest, HelloRoundTrip) {
  HelloMessage hello;
  hello.leaf_id = 7;
  hello.dimensions = 20;
  const auto parsed = ParseHello(EncodeHello(hello));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->leaf_id, 7u);
  EXPECT_EQ(parsed->dimensions, 20u);
}

TEST(DistProtocolTest, DeltaRoundTrip) {
  DeltaMessage delta;
  delta.leaf_id = 3;
  delta.seq = 12;
  delta.points = 4096;
  delta.state_text = "ucheckpoint 2 fake body\nwith lines\n";
  const auto parsed = ParseDelta(EncodeDelta(delta));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->leaf_id, 3u);
  EXPECT_EQ(parsed->seq, 12u);
  EXPECT_EQ(parsed->points, 4096u);
  EXPECT_EQ(parsed->state_text, delta.state_text);
}

TEST(DistProtocolTest, AckRoundTrip) {
  AckMessage ack;
  ack.leaf_id = 2;
  ack.seq = 9;
  const auto parsed = ParseAck(EncodeAck(ack));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->leaf_id, 2u);
  EXPECT_EQ(parsed->seq, 9u);
}

TEST(DistProtocolTest, ParsersRejectHostileInput) {
  EXPECT_FALSE(ParseHello("").has_value());
  EXPECT_FALSE(ParseHello("uhello").has_value());
  EXPECT_FALSE(ParseHello("uhello 99 0 2").has_value());  // bad version
  EXPECT_FALSE(ParseHello("udelta 1 0 2").has_value());   // wrong keyword
  EXPECT_FALSE(ParseHello("uhello 1 x 2").has_value());

  EXPECT_FALSE(ParseDelta("").has_value());
  EXPECT_FALSE(ParseDelta("udelta 1 0 0 100\nstate").has_value());  // seq 0
  EXPECT_FALSE(ParseDelta("udelta 1 0 1 100\n").has_value());  // empty state
  const std::uint64_t huge_leaf = kMaxLeafId + 1;
  EXPECT_FALSE(ParseDelta("udelta 1 " + std::to_string(huge_leaf) +
                          " 1 100\nstate")
                   .has_value());

  EXPECT_FALSE(ParseAck("").has_value());
  EXPECT_FALSE(ParseAck("uack 1 2").has_value());
  EXPECT_FALSE(ParseAck("uack 2 1 1").has_value());  // future version
}

/// Engine configuration shared by every leaf / shard / reference run.
core::EngineConfig LeafEngineOptions() {
  core::EngineConfig options;
  options.umicro.num_micro_clusters = 40;
  options.snapshot.snapshot_every = 0;  // snapshots orthogonal here
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

/// Canonical dump used for every bit-identity comparison.
std::string Canonical(const core::LabeledFrame& clusters,
                      std::size_t dimensions) {
  return io::MicroClustersToString(clusters, dimensions);
}

/// Runs one leaf: a sequential engine over the round-robin substream
/// `offset mod stride`, shipping a delta every `delta_every` points and
/// once at the end.
void RunLeaf(const stream::Dataset& dataset, std::uint64_t leaf_id,
             std::size_t stride, std::uint16_t port,
             std::size_t delta_every) {
  core::UMicroEngine engine(dataset.dimensions(), LeafEngineOptions());
  LeafShipperOptions options;
  options.leaf_id = leaf_id;
  options.dimensions = dataset.dimensions();
  LeafShipper shipper({"127.0.0.1", port}, options);
  std::uint64_t done = 0;
  for (std::size_t i = 0; i < dataset.points().size(); ++i) {
    if (i % stride != leaf_id) continue;
    engine.Process(dataset.points()[i]);
    ++done;
    if (delta_every > 0 && done % delta_every == 0) {
      ASSERT_TRUE(shipper.ShipState(
          done, done, io::EngineStateToString(engine.ExportEngineState())));
    }
  }
  engine.Flush();
  ASSERT_TRUE(shipper.ShipState(
      done, done, io::EngineStateToString(engine.ExportEngineState())));
  shipper.Finish();
}

/// The in-process reference: the sharded engine over the same stream,
/// same round-robin partitioning, same budgets.
core::LabeledFrame ShardedReference(
    const stream::Dataset& dataset, std::size_t shards) {
  parallel::ParallelEngineOptions options;
  options.sharded.umicro = LeafEngineOptions().umicro;
  options.sharded.num_shards = shards;
  options.sharded.producer_batch = 1;  // per-point round robin, like the leaves
  options.sharded.merge_every = 0;
  options.snapshot.snapshot_every = 0;
  parallel::ParallelUMicroEngine sharded(dataset.dimensions(), options);
  for (const auto& point : dataset.points()) sharded.Process(point);
  sharded.Flush();
  return sharded.GlobalClusters();
}

TEST(DistTopologyTest, TwoLeavesMatchShardedReferenceBitForBit) {
  const stream::Dataset dataset =
      synth::MakeSynDriftWorkload(4000, 0.5, 21);
  const std::size_t total = dataset.points().size();

  Aggregator aggregator(MatchingAggregatorOptions(dataset.dimensions()));
  ASSERT_TRUE(aggregator.Start());

  std::thread leaf0([&] {
    RunLeaf(dataset, 0, 2, aggregator.port(), 512);
  });
  std::thread leaf1([&] {
    RunLeaf(dataset, 1, 2, aggregator.port(), 512);
  });
  leaf0.join();
  leaf1.join();
  ASSERT_TRUE(aggregator.WaitForPoints(total, 10000));

  const std::string reference =
      Canonical(ShardedReference(dataset, 2), dataset.dimensions());
  const std::string merged =
      Canonical(aggregator.MergedClusters(), dataset.dimensions());
  EXPECT_EQ(merged, reference);
  EXPECT_EQ(aggregator.leaves_known(), 2u);
  aggregator.Stop();
}

TEST(DistTopologyTest, HorizonQueriesReachBackAcrossAppliedDeltas) {
  const stream::Dataset dataset =
      synth::MakeSynDriftWorkload(4000, 0.5, 31);
  Aggregator aggregator(MatchingAggregatorOptions(dataset.dimensions()));
  ASSERT_TRUE(aggregator.Start());
  // Eight deltas per leaf: each applied delta adds a history frame.
  std::thread leaf0([&] {
    RunLeaf(dataset, 0, 2, aggregator.port(), 250);
  });
  std::thread leaf1([&] {
    RunLeaf(dataset, 1, 2, aggregator.port(), 250);
  });
  leaf0.join();
  leaf1.join();
  ASSERT_TRUE(aggregator.WaitForPoints(dataset.points().size(), 10000));
  EXPECT_EQ(aggregator.deltas_applied(), 16u);

  std::istringstream in("CLUSTER 500 3\nCLUSTER 2500 5\nQUIT\n");
  std::ostringstream out;
  serve::ServeLineProtocol(aggregator.broker(), in, out);
  EXPECT_EQ(out.str().find("empty=1"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find(" centroids=3\n"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find(" centroids=5\n"), std::string::npos)
      << out.str();
  aggregator.Stop();
}

/// The aggregator's history keeps what the pyramid keeps: with alpha = 2
/// and l = 1 every order holds 3 frames, so 20-odd applied deltas evict,
/// and STATS reports exactly the frames a SnapshotStore(2, 1) fed the
/// same ticks (one per merged-view rebuild) retains.
TEST(DistTopologyTest, AggregatorRetentionFollowsThePyramid) {
  const stream::Dataset dataset =
      synth::MakeSynDriftWorkload(2400, 0.5, 13);
  AggregatorOptions options = MatchingAggregatorOptions(dataset.dimensions());
  options.snapshot.pyramid_alpha = 2;
  options.snapshot.pyramid_l = 1;
  obs::MetricsRegistry metrics;
  Aggregator aggregator(options, &metrics);
  ASSERT_TRUE(aggregator.Start());
  std::thread leaf0([&] {
    RunLeaf(dataset, 0, 2, aggregator.port(), 100);
  });
  std::thread leaf1([&] {
    RunLeaf(dataset, 1, 2, aggregator.port(), 100);
  });
  leaf0.join();
  leaf1.join();
  ASSERT_TRUE(aggregator.WaitForPoints(dataset.points().size(), 10000));
  EXPECT_GE(aggregator.deltas_applied(), 20u);

  const std::uint64_t ticks = metrics.GetCounter("dist.agg.merges").value();
  core::SnapshotStore store(2, 1);
  for (std::uint64_t tick = 1; tick <= ticks; ++tick) {
    store.Insert(tick, core::Snapshot(static_cast<double>(tick), 0));
  }
  ASSERT_LT(store.TotalStored(), ticks);  // retention evicted

  std::istringstream in("STATS\nQUIT\n");
  std::ostringstream out;
  serve::ServeLineProtocol(aggregator.broker(), in, out);
  EXPECT_NE(out.str().find(" snapshots=" +
                           std::to_string(store.TotalStored()) + " "),
            std::string::npos)
      << out.str();
  aggregator.Stop();
}

TEST(DistTopologyTest, ReplayedDeltasAreAckedButNotReapplied) {
  const stream::Dataset dataset = synth::MakeSynDriftWorkload(600, 0.5, 5);
  Aggregator aggregator(MatchingAggregatorOptions(dataset.dimensions()));
  ASSERT_TRUE(aggregator.Start());

  core::UMicroEngine engine(dataset.dimensions(), LeafEngineOptions());
  for (const auto& point : dataset.points()) engine.Process(point);
  engine.Flush();
  const std::string state =
      io::EngineStateToString(engine.ExportEngineState());

  LeafShipperOptions options;
  options.leaf_id = 0;
  options.dimensions = dataset.dimensions();
  LeafShipper shipper({"127.0.0.1", aggregator.port()}, options);
  ASSERT_TRUE(shipper.ShipState(600, 600, state));
  const std::uint64_t applied_once = aggregator.deltas_applied();
  const std::string merged_once =
      Canonical(aggregator.MergedClusters(), dataset.dimensions());

  // Same delta again (lost-ACK replay), then a stale lower sequence
  // (restarted leaf catching up): both acked, neither applied.
  ASSERT_TRUE(shipper.ShipState(600, 600, state));
  ASSERT_TRUE(shipper.ShipState(600, 600, state));
  EXPECT_EQ(aggregator.deltas_applied(), applied_once);
  EXPECT_EQ(Canonical(aggregator.MergedClusters(), dataset.dimensions()),
            merged_once);
  EXPECT_EQ(shipper.deltas_acked(), 3u);
  shipper.Finish();
  aggregator.Stop();
}

TEST(DistTopologyTest, AggregatorRefusesShardedStates) {
  // Leaves are sequential engines: a sharded engine's export is not a
  // delta, even though it parses as a checkpoint.
  const stream::Dataset dataset = synth::MakeSynDriftWorkload(600, 0.5, 9);
  obs::MetricsRegistry metrics;
  Aggregator aggregator(MatchingAggregatorOptions(dataset.dimensions()),
                        &metrics);
  ASSERT_TRUE(aggregator.Start());

  parallel::ParallelEngineOptions engine_options;
  engine_options.sharded.umicro = LeafEngineOptions().umicro;
  engine_options.sharded.num_shards = 2;
  engine_options.snapshot.snapshot_every = 0;
  parallel::ParallelUMicroEngine engine(dataset.dimensions(),
                                        engine_options);
  for (const auto& point : dataset.points()) engine.Process(point);
  const std::string state =
      io::EngineStateToString(engine.ExportEngineState());

  LeafShipperOptions options;
  options.leaf_id = 0;
  options.dimensions = dataset.dimensions();
  options.max_attempts = 1;
  LeafShipper shipper({"127.0.0.1", aggregator.port()}, options);
  EXPECT_FALSE(shipper.ShipState(600, 600, state));
  EXPECT_EQ(metrics.GetCounter("dist.agg.protocol_errors").value(), 1u);
  EXPECT_TRUE(aggregator.MergedClusters().empty());
  EXPECT_EQ(aggregator.deltas_applied(), 0u);
  shipper.Stop();
  aggregator.Stop();
}

TEST(DistTopologyTest, LeafCrashAndCheckpointRestartConverges) {
  const stream::Dataset dataset =
      synth::MakeSynDriftWorkload(3000, 0.5, 33);
  const std::size_t total = dataset.points().size();
  const std::size_t dims = dataset.dimensions();

  Aggregator aggregator(MatchingAggregatorOptions(dims));
  ASSERT_TRUE(aggregator.Start());

  // Leaf 1 runs to completion normally.
  std::thread leaf1([&] { RunLeaf(dataset, 1, 2, aggregator.port(), 400); });

  // Leaf 0 "crashes" after 1000 of its points; its durable checkpoint
  // is the delta it shipped at point 800 (the crash loses points
  // 801..1000, exactly like a real process kill between checkpoints).
  std::string checkpoint;
  {
    core::UMicroEngine engine(dims, LeafEngineOptions());
    LeafShipperOptions options;
    options.leaf_id = 0;
    options.dimensions = dims;
    LeafShipper shipper({"127.0.0.1", aggregator.port()}, options);
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < dataset.points().size() && done < 1000;
         ++i) {
      if (i % 2 != 0) continue;
      engine.Process(dataset.points()[i]);
      ++done;
      if (done % 400 == 0) {
        checkpoint = io::EngineStateToString(engine.ExportEngineState());
        ASSERT_TRUE(shipper.ShipState(done, done, checkpoint));
      }
    }
    // Destructors simulate the kill: no Finish(), no final delta.
  }

  // Restart: restore from the checkpoint, replay the substream from the
  // recovery point (the upstream source replays what wasn't durable),
  // re-ship -- the first delta repeats an already-applied sequence and
  // is deduplicated.
  {
    const std::optional<core::EngineState> restored =
        io::ParseEngineState(checkpoint);
    ASSERT_TRUE(restored.has_value());
    core::UMicroEngine engine(dims, LeafEngineOptions());
    ASSERT_TRUE(engine.RestoreEngineState(*restored));

    LeafShipperOptions options;
    options.leaf_id = 0;
    options.dimensions = dims;
    LeafShipper shipper({"127.0.0.1", aggregator.port()}, options);
    std::uint64_t done = 800;  // recovered progress
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < dataset.points().size(); ++i) {
      if (i % 2 != 0) continue;
      ++seen;
      if (seen <= 800) continue;  // already inside the checkpoint
      engine.Process(dataset.points()[i]);
      ++done;
      if (done % 400 == 0) {
        ASSERT_TRUE(shipper.ShipState(
            done, done,
            io::EngineStateToString(engine.ExportEngineState())));
      }
    }
    engine.Flush();
    ASSERT_TRUE(shipper.ShipState(
        done, done, io::EngineStateToString(engine.ExportEngineState())));
    shipper.Finish();
  }

  leaf1.join();
  ASSERT_TRUE(aggregator.WaitForPoints(total, 10000));

  const std::string reference =
      Canonical(ShardedReference(dataset, 2), dims);
  EXPECT_EQ(Canonical(aggregator.MergedClusters(), dims), reference);
  aggregator.Stop();
}

TEST(DistTopologyTest, MuteAggregatorTriggersBoundedResends) {
  // A listener that accepts and reads but never acks: the shipper must
  // time out, re-send, and eventually give up -- never hang.
  auto listener = net::TcpListener::Listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.has_value());
  std::atomic<bool> stop{false};
  std::thread mute([&] {
    std::vector<net::Socket> sockets;
    while (!stop.load()) {
      if (auto socket = listener->Accept(100)) {
        sockets.push_back(std::move(*socket));
      }
      for (auto& socket : sockets) {
        char sink[4096];
        bool timed_out = false;
        socket.RecvSome(sink, sizeof(sink), 10, &timed_out);
      }
    }
  });

  LeafShipperOptions options;
  options.leaf_id = 0;
  options.dimensions = 2;
  options.ack_timeout_ms = 200;
  options.max_attempts = 3;
  LeafShipper shipper({"127.0.0.1", listener->port()}, options);
  EXPECT_FALSE(shipper.ShipState(1, 100, "ucheckpoint 2 bogus\n"));
  EXPECT_EQ(shipper.resends(), 2u);  // attempts 2 and 3
  shipper.Stop();
  stop.store(true);
  mute.join();
  listener->Close();
}

TEST(DistTopologyTest, RemoteQueriesMatchInProcessBroker) {
  const stream::Dataset dataset =
      synth::MakeSynDriftWorkload(1500, 0.5, 77);
  Aggregator aggregator(MatchingAggregatorOptions(dataset.dimensions()));
  ASSERT_TRUE(aggregator.Start());

  std::thread leaf0([&] { RunLeaf(dataset, 0, 2, aggregator.port(), 0); });
  std::thread leaf1([&] { RunLeaf(dataset, 1, 2, aggregator.port(), 0); });
  leaf0.join();
  leaf1.join();
  ASSERT_TRUE(
      aggregator.WaitForPoints(dataset.points().size(), 10000));

  std::ostringstream request;
  request << "STATS\n";
  request << "NEAREST";
  for (std::size_t j = 0; j < dataset.dimensions(); ++j) request << " 0";
  request << "\nCLUSTER 500 3\nQUIT\n";

  // In-process reference answer through the identical line protocol.
  std::istringstream local_in(request.str());
  std::ostringstream local_out;
  serve::ServeLineProtocol(aggregator.broker(), local_in, local_out);

  // Same bytes over a real socket through the aggregator's query plane.
  auto socket = net::TcpConnect({"127.0.0.1", aggregator.port()}, 2000);
  ASSERT_TRUE(socket.has_value());
  net::SocketStream remote(&*socket, 5000);
  remote << request.str();
  remote.flush();
  std::ostringstream remote_out;
  remote_out << remote.rdbuf();

  // The served=/queue= fields of STATS are live monitoring counters of
  // the shared broker, so they depend on which pass ran first; every
  // semantic answer must still match byte for byte.
  const auto normalized = [](const std::string& text) {
    std::istringstream in(text);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t served = line.find(" served=");
      if (line.rfind("OK STATS", 0) == 0 && served != std::string::npos) {
        line.resize(served);
      }
      out << line << "\n";
    }
    return out.str();
  };
  EXPECT_EQ(normalized(remote_out.str()), normalized(local_out.str()));
  aggregator.Stop();
}

}  // namespace
}  // namespace umicro::dist
