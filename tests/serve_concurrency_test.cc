// Concurrency and correctness tests for the query-serving layer
// (src/serve): the copy-on-publish read replica, the broker worker
// pool, and the line-protocol front end.
//
// The load-bearing assertions:
//   * quiesced equality -- after Flush(), a broker ClusterRecent answer
//     is bit-identical to the engine's own ClusterRecent (same snapshot
//     selection, same decay correction, same deterministic k-means);
//   * queries racing ingest never crash, never block ingest, and every
//     answer is internally consistent (run under TSan in CI);
//   * the replica state a reader holds never mutates, no matter how
//     many publications happen meanwhile;
//   * publishing never copies a frame: the replica's history holds the
//     very objects that are the store's full ring heads, and a published
//     frame stays intact when the store re-encodes its own entry;
//   * frames of equal time resolve to the newest tick in the store and
//     the replica alike.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/engine_core.h"
#include "io/snapshot_io.h"
#include "parallel/parallel_engine.h"
#include "serve/query_broker.h"
#include "serve/replica.h"
#include "serve/server.h"
#include "stream/point.h"
#include "util/random.h"

namespace umicro::serve {
namespace {

using stream::UncertainPoint;

std::vector<UncertainPoint> MakeStream(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<UncertainPoint> points;
  points.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    points.emplace_back(
        std::vector<double>{rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0)},
        std::vector<double>{rng.Uniform(0.0, 0.3), rng.Uniform(0.0, 0.3)},
        static_cast<double>(i));
  }
  return points;
}

core::EngineConfig SmallEngineOptions(double decay) {
  core::EngineConfig options;
  options.umicro.num_micro_clusters = 32;
  options.umicro.decay_lambda = decay;
  options.snapshot.snapshot_every = 64;
  return options;
}

/// After Flush(), the broker must answer ClusterRecent bit-identically
/// to the engine's in-process ClusterRecent: same realized horizon,
/// same window mass, same macro-centroids to the last bit.
TEST(ServeQuiescedEqualityTest, BrokerMatchesEngineBitForBit) {
  for (const double decay : {0.0, 0.01}) {
    core::EngineConfig options = SmallEngineOptions(decay);
    core::UMicroEngine engine(2, options);
    SnapshotReadReplica replica(options.snapshot, decay);
    engine.AttachSnapshotSink(&replica);

    const auto points = MakeStream(640, 99);
    engine.ProcessBatch(points);
    engine.Flush();

    QueryBrokerOptions broker_options;
    broker_options.num_threads = 2;
    QueryBroker broker(&replica, broker_options, &engine.metrics());

    for (const double horizon : {50.0, 130.0, 400.0, 1e5}) {
      core::MacroClusteringOptions macro = broker_options.macro;
      const auto engine_answer = engine.ClusterRecent(horizon, macro);
      QueryRequest request;
      request.kind = QueryRequest::Kind::kClusterRecent;
      request.horizon = horizon;
      const QueryResponse served = broker.Execute(request);
      ASSERT_TRUE(served.ok);
      ASSERT_EQ(served.clustering.has_value(), engine_answer.has_value())
          << "decay " << decay << " horizon " << horizon;
      if (!engine_answer.has_value()) continue;
      // Bit-identical, not approximately equal: the broker runs the
      // same ClusterOverHorizon (selection, subtraction, seeded k-means).
      EXPECT_EQ(served.clustering->realized_horizon,
                engine_answer->realized_horizon);
      EXPECT_EQ(served.clustering->realized_ratio,
                engine_answer->realized_ratio);
      ASSERT_EQ(served.clustering->window.size(),
                engine_answer->window.size());
      EXPECT_EQ(served.clustering->macro.centroids,
                engine_answer->macro.centroids);
      EXPECT_EQ(served.clustering->macro.weighted_ssq,
                engine_answer->macro.weighted_ssq);
    }
  }
}

/// Same guarantee through the sharded engine: attach primes the replica
/// from the already-stored snapshots, Flush publishes the merged global
/// view, and the broker answer matches the engine's.
TEST(ServeQuiescedEqualityTest, ParallelEngineAttachAndMatch) {
  parallel::ParallelEngineOptions options;
  options.sharded.umicro.num_micro_clusters = 32;
  options.sharded.num_shards = 2;
  options.snapshot.snapshot_every = 64;
  parallel::ParallelUMicroEngine engine(2, options);

  const auto points = MakeStream(512, 17);
  // Ingest BEFORE attaching: the sink must be primed with everything
  // the store already retains (the CLI recovery path does this).
  engine.ProcessBatch(points);

  SnapshotReadReplica replica(options.snapshot, 0.0);
  engine.AttachSnapshotSink(&replica);
  ASSERT_GT(replica.publish_seq(), 0u);

  QueryBroker broker(&replica, {});
  const double horizon = 150.0;
  const auto engine_answer =
      engine.ClusterRecent(horizon, core::MacroClusteringOptions{});
  QueryRequest request;
  request.kind = QueryRequest::Kind::kClusterRecent;
  request.horizon = horizon;
  const QueryResponse served = broker.Execute(request);
  ASSERT_TRUE(served.ok);
  ASSERT_TRUE(served.clustering.has_value());
  ASSERT_TRUE(engine_answer.has_value());
  EXPECT_EQ(served.clustering->macro.centroids,
            engine_answer->macro.centroids);
}

/// Queries race ingest: one thread streams points through the engine
/// while query threads hammer the broker. Nothing crashes, every
/// response is well-formed, and the view a query used is internally
/// consistent (monotone publish_seq). This is the test CI runs under
/// TSan -- the replica swap and Acquire are the racy surface.
TEST(ServeConcurrencyTest, QueriesRaceIngestSafely) {
  core::EngineConfig options = SmallEngineOptions(0.005);
  core::UMicroEngine engine(2, options);
  SnapshotReadReplica replica(options.snapshot, 0.005);
  engine.AttachSnapshotSink(&replica);

  QueryBrokerOptions broker_options;
  broker_options.num_threads = 3;
  QueryBroker broker(&replica, broker_options, &engine.metrics());

  const auto points = MakeStream(4096, 7);
  std::atomic<bool> done{false};
  // Ingest waits for both queriers, and each querier submits at least
  // once, so the race happens however the threads are scheduled.
  std::atomic<int> running{0};

  std::thread ingest([&] {
    while (running.load() < 2) std::this_thread::yield();
    constexpr std::size_t kBatch = 128;
    for (std::size_t i = 0; i < points.size(); i += kBatch) {
      const std::size_t n = std::min(kBatch, points.size() - i);
      engine.ProcessBatch({points.data() + i, n});
    }
    done.store(true);
  });

  std::vector<std::thread> queriers;
  std::atomic<std::uint64_t> answered{0};
  for (int q = 0; q < 2; ++q) {
    queriers.emplace_back([&, q] {
      std::uint64_t last_seq = 0;
      running.fetch_add(1);
      do {
        QueryRequest request;
        if (q == 0) {
          request.kind = QueryRequest::Kind::kClusterRecent;
          request.horizon = 200.0;
        } else {
          request.kind = QueryRequest::Kind::kAnomaly;
          request.values = {0.0, 0.0};
        }
        QueryResponse response = broker.Submit(request).get();
        EXPECT_TRUE(response.ok);
        // Publications are monotone from any single reader's view.
        EXPECT_GE(response.publish_seq, last_seq);
        last_seq = response.publish_seq;
        answered.fetch_add(1);
      } while (!done.load());
    });
  }
  ingest.join();
  for (auto& t : queriers) t.join();
  EXPECT_GT(answered.load(), 0u);

  // After the race, quiesce and re-check exact equality end to end.
  engine.Flush();
  QueryRequest request;
  request.kind = QueryRequest::Kind::kClusterRecent;
  request.horizon = 300.0;
  const QueryResponse served = broker.Execute(request);
  const auto engine_answer =
      engine.ClusterRecent(300.0, broker_options.macro);
  ASSERT_TRUE(served.ok);
  ASSERT_TRUE(served.clustering.has_value());
  ASSERT_TRUE(engine_answer.has_value());
  EXPECT_EQ(served.clustering->macro.centroids,
            engine_answer->macro.centroids);
  EXPECT_GT(broker.queries_served(), 0u);
}

/// A reader's acquired state never changes under further publications.
TEST(ReplicaTest, AcquiredStateIsImmutableAcrossPublishes) {
  core::SnapshotPolicy policy;
  policy.snapshot_every = 10;
  SnapshotReadReplica replica(policy, 0.0);

  core::ErrorClusterFeature ecf(1);
  ecf.AddPoint(UncertainPoint(std::vector<double>{1.0},
                              std::vector<double>{0.1}, 10.0));
  const std::vector<core::MicroClusterState> states = {{1, 0.0, ecf}};
  auto first = std::make_shared<core::Snapshot>(
      core::Snapshot::FromStates(10.0, states));
  replica.PublishSnapshot(1, first);
  replica.PublishCurrent(first);

  const auto held = replica.Acquire();
  const std::uint64_t held_seq = held->publish_seq;
  const std::size_t held_history = held->history.size();
  const double held_time = held->current->time;

  for (int i = 2; i <= 40; ++i) {
    auto next = std::make_shared<core::Snapshot>(
        core::Snapshot::FromStates(10.0 * i, states));
    replica.PublishSnapshot(static_cast<std::uint64_t>(i), next);
    replica.PublishCurrent(next);
  }

  EXPECT_EQ(held->publish_seq, held_seq);
  EXPECT_EQ(held->history.size(), held_history);
  EXPECT_EQ(held->current->time, held_time);
  EXPECT_GT(replica.Acquire()->publish_seq, held_seq);
}

/// Replica retention equals the engine store's: the replica's history
/// holds the frames a store of the same alpha and l retains, so the
/// at-or-before pick equals the store's for any time, under every
/// pyramid geometry.
TEST(ReplicaTest, RetentionMirrorsSnapshotStore) {
  for (const auto& [alpha, l] : {std::pair<std::size_t, std::size_t>{2, 3},
                                 {3, 2},
                                 {2, 1}}) {
    SCOPED_TRACE("alpha " + std::to_string(alpha) + " l " + std::to_string(l));
    core::SnapshotPolicy policy;
    policy.snapshot_every = 1;
    policy.pyramid_alpha = alpha;
    policy.pyramid_l = l;
    core::SnapshotStore store(policy.pyramid_alpha, policy.pyramid_l);
    SnapshotReadReplica replica(policy, 0.0);

    core::ErrorClusterFeature ecf(1);
    ecf.AddPoint(UncertainPoint(std::vector<double>{0.5},
                                std::vector<double>{0.1}, 1.0));
    const std::vector<core::MicroClusterState> states = {{1, 0.0, ecf}};
    for (std::uint64_t tick = 1; tick <= 500; ++tick) {
      auto snapshot = std::make_shared<core::Snapshot>(
          core::Snapshot::FromStates(static_cast<double>(tick), states));
      replica.PublishSnapshot(tick, snapshot);
      store.Insert(tick, std::move(snapshot));
    }

    const auto state = replica.Acquire();
    EXPECT_EQ(state->history.size(), store.TotalStored());
    for (const double t : {3.0, 77.5, 200.0, 444.0, 499.0}) {
      const auto from_store = store.FindAtOrBefore(t);
      const core::Snapshot* from_replica =
          state->Find(t, core::FramePick::kAtOrBefore).get();
      ASSERT_EQ(from_store.has_value(), from_replica != nullptr) << t;
      if (from_store.has_value()) {
        EXPECT_EQ(from_store->time, from_replica->time) << t;
      }
    }
  }
}

/// Store frame of `tick` (any order), or nullptr.
const core::EncodedFrame* StoreFrame(const core::SnapshotStore& store,
                                     std::uint64_t tick) {
  for (std::size_t order = 0; order < store.NumOrders(); ++order) {
    for (std::size_t i = 0; i < store.OrderSize(order); ++i) {
      if (store.FrameAt(order, i).tick == tick) return &store.FrameAt(order, i);
    }
  }
  return nullptr;
}

/// Publishing shares, never copies: every replica history entry whose
/// store frame is still a full head is that very object, on the cadence
/// path and after attach-time priming alike.
TEST(ReplicaTest, HistorySharesTheStoresFullFrames) {
  for (const auto mode :
       {core::SnapshotStoreMode::kFull, core::SnapshotStoreMode::kDelta}) {
    core::EngineConfig options = SmallEngineOptions(0.0);
    options.snapshot.tiering.mode = mode;
    const auto points = MakeStream(3000, 5);
    core::EngineCore live(2, options.umicro, options.snapshot);
    SnapshotReadReplica live_replica(options.snapshot, 0.0);
    live.AttachSnapshotSink(&live_replica);
    core::EngineCore primed(2, options.umicro, options.snapshot);
    primed.ProcessBatch(points);
    live.ProcessBatch(points);
    SnapshotReadReplica primed_replica(options.snapshot, 0.0);
    primed.AttachSnapshotSink(&primed_replica);

    for (const auto& [engine, replica] :
         {std::pair(&live, &live_replica),
          std::pair(&primed, &primed_replica)}) {
      const core::SnapshotStore& store = engine->store();
      const auto state = replica->Acquire();
      ASSERT_EQ(state->history.size(), store.TotalStored());
      std::size_t shared_heads = 0;
      for (const ReplicaFrame& entry : state->history) {
        const core::EncodedFrame* frame = StoreFrame(store, entry.tick);
        ASSERT_NE(frame, nullptr) << "tick " << entry.tick;
        EXPECT_EQ(frame->time, entry.snapshot->time);
        if (frame->encoding != core::FrameEncoding::kFull) continue;
        EXPECT_EQ(frame->full.get(), entry.snapshot.get())
            << "tick " << entry.tick;
        ++shared_heads;
      }
      EXPECT_GT(shared_heads, 0u);
    }
    // On the cadence path the newest frame is also the "current" view.
    EXPECT_EQ(live_replica.Acquire()->current.get(),
              live_replica.Acquire()->history.back().snapshot.get());
  }
}

/// A frame handed to a sink is immutable: when the delta store re-encodes
/// its own entry for that tick (copying the changed records out), the
/// replica's object keeps every bit -- whether the frame was published on
/// cadence or handed over by attach-time priming.
void ExpectPublishedFrameSurvivesDeltaReencode(bool prime) {
  core::EngineConfig options = SmallEngineOptions(0.0);
  options.snapshot.tiering.mode = core::SnapshotStoreMode::kDelta;
  core::EngineCore engine(2, options.umicro, options.snapshot);
  SnapshotReadReplica replica(options.snapshot, 0.0);
  if (!prime) engine.AttachSnapshotSink(&replica);
  const auto points = MakeStream(2000, 23);
  engine.ProcessBatch(std::span(points).first(64 * 4));
  if (prime) engine.AttachSnapshotSink(&replica);

  const auto held = replica.Acquire()->history.back();
  const std::string before = io::SnapshotToString(*held.snapshot);
  const core::EncodedFrame* head = StoreFrame(engine.store(), held.tick);
  ASSERT_NE(head, nullptr);
  ASSERT_EQ(head->encoding, core::FrameEncoding::kFull);
  ASSERT_EQ(head->full.get(), held.snapshot.get());

  // Enough cadence snapshots that the ring re-encodes that head.
  engine.ProcessBatch(std::span(points).subspan(64 * 4, 64 * 8));
  const core::EncodedFrame* warm = StoreFrame(engine.store(), held.tick);
  ASSERT_NE(warm, nullptr);
  ASSERT_EQ(warm->encoding, core::FrameEncoding::kDelta);
  EXPECT_EQ(io::SnapshotToString(*held.snapshot), before);
  for (std::size_t order = 0; order < engine.store().NumOrders(); ++order) {
    for (std::size_t i = 0; i < engine.store().OrderSize(order); ++i) {
      if (engine.store().FrameAt(order, i).tick != held.tick) continue;
      const auto materialized = engine.store().MaterializeFrame(order, i);
      ASSERT_TRUE(materialized.has_value());
      EXPECT_EQ(io::SnapshotToString(*materialized), before);
    }
  }

  // A checkpoint shares every full frame with the store: frames are
  // never mutated, so none needs a private copy.
  const core::SnapshotStoreState exported = engine.store().ExportState();
  for (std::size_t order = 0; order < exported.orders.size(); ++order) {
    for (std::size_t i = 0; i < exported.orders[order].size(); ++i) {
      const core::EncodedFrame& frame = exported.orders[order][i];
      if (frame.encoding != core::FrameEncoding::kFull) continue;
      EXPECT_EQ(frame.full.get(),
                engine.store().FrameAt(order, i).full.get());
    }
  }
}

TEST(ReplicaTest, PublishedFrameSurvivesDeltaReencode) {
  {
    SCOPED_TRACE("cadence");
    ExpectPublishedFrameSurvivesDeltaReencode(false);
  }
  {
    SCOPED_TRACE("primed");
    ExpectPublishedFrameSurvivesDeltaReencode(true);
  }
}

/// Coarse timestamps give many cadence snapshots the same time. Among
/// equal times the newest tick must win, in the store and the replica
/// alike, so every horizon answer served from the replica is bitwise the
/// engine's own: 100 points per timestamp, a snapshot every 10 points.
TEST(ServeQuiescedEqualityTest, TiedSnapshotTimesPickTheSameTick) {
  core::EngineConfig options = SmallEngineOptions(0.0);
  options.snapshot.snapshot_every = 10;
  core::EngineCore engine(2, options.umicro, options.snapshot);
  SnapshotReadReplica replica(options.snapshot, 0.0);
  engine.AttachSnapshotSink(&replica);
  auto points = MakeStream(2400, 41);
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].timestamp = static_cast<double>(i / 100 + 1);
  }
  engine.ProcessBatch(points);
  engine.Flush();

  QueryBroker broker(&replica, {});
  const auto state = replica.Acquire();
  const core::SnapshotStore& store = engine.store();
  std::size_t tied_picks = 0;
  for (int step = 1; step <= 48; ++step) {
    const double horizon = step == 48 ? 1e5 : 0.5 * step;
    const double target = state->current->time - horizon;

    // The frame both sides must pick: the newest tick among the latest
    // time at or before the target, or -- when the horizon predates
    // retention -- among the oldest retained time (the nearest).
    const core::EncodedFrame* expected = nullptr;
    bool at_or_before = false;
    for (std::size_t order = 0; order < store.NumOrders(); ++order) {
      for (std::size_t i = 0; i < store.OrderSize(order); ++i) {
        at_or_before |= store.FrameAt(order, i).time <= target;
      }
    }
    for (std::size_t order = 0; order < store.NumOrders(); ++order) {
      for (std::size_t i = 0; i < store.OrderSize(order); ++i) {
        const core::EncodedFrame& frame = store.FrameAt(order, i);
        if (at_or_before && frame.time > target) continue;
        if (expected == nullptr ||
            (at_or_before ? frame.time > expected->time
                          : frame.time < expected->time) ||
            (frame.time == expected->time && frame.tick > expected->tick)) {
          expected = &frame;
        }
      }
    }
    ASSERT_NE(expected, nullptr) << "horizon " << horizon;
    std::size_t same_time = 0;
    for (const ReplicaFrame& entry : state->history) {
      same_time += entry.snapshot->time == expected->time;
    }
    tied_picks += same_time > 1;
    const core::Snapshot* from_replica =
        state
            ->Find(target, at_or_before ? core::FramePick::kAtOrBefore
                                        : core::FramePick::kNearest)
            .get();
    ASSERT_NE(from_replica, nullptr);
    const auto expected_entry = std::find_if(
        state->history.begin(), state->history.end(),
        [&](const ReplicaFrame& entry) { return entry.tick == expected->tick; });
    ASSERT_NE(expected_entry, state->history.end());
    EXPECT_EQ(from_replica, expected_entry->snapshot.get())
        << "horizon " << horizon;
    const auto from_store = at_or_before ? store.FindAtOrBefore(target)
                                         : store.FindNearest(target);
    ASSERT_TRUE(from_store.has_value());
    EXPECT_EQ(io::SnapshotToString(*from_store),
              io::SnapshotToString(*from_replica))
        << "horizon " << horizon;

    core::MacroClusteringOptions macro = QueryBrokerOptions{}.macro;
    const auto engine_answer = engine.ClusterRecent(horizon, macro);
    QueryRequest request;
    request.kind = QueryRequest::Kind::kClusterRecent;
    request.horizon = horizon;
    const QueryResponse served = broker.Execute(request);
    ASSERT_TRUE(served.ok);
    ASSERT_EQ(served.clustering.has_value(), engine_answer.has_value())
        << "horizon " << horizon;
    if (!engine_answer.has_value()) continue;
    EXPECT_EQ(served.clustering->realized_horizon,
              engine_answer->realized_horizon);
    const core::Snapshot served_window =
        core::Snapshot::FromStates(0.0, served.clustering->window);
    const core::Snapshot engine_window =
        core::Snapshot::FromStates(0.0, engine_answer->window);
    EXPECT_EQ(io::SnapshotToString(served_window),
              io::SnapshotToString(engine_window))
        << "horizon " << horizon;
    EXPECT_EQ(served.clustering->macro.centroids,
              engine_answer->macro.centroids)
        << "horizon " << horizon;
    EXPECT_EQ(served.clustering->macro.weighted_ssq,
              engine_answer->macro.weighted_ssq);
  }
  EXPECT_GE(tied_picks, 10u);
}

/// The line protocol end to end over string streams: pipelined
/// requests, in-order responses, ERR for malformed input, QUIT ends.
TEST(ServerTest, LineProtocolAnswersInOrder) {
  core::EngineConfig options = SmallEngineOptions(0.0);
  core::UMicroEngine engine(2, options);
  SnapshotReadReplica replica(options.snapshot, 0.0);
  engine.AttachSnapshotSink(&replica);
  engine.ProcessBatch(MakeStream(256, 3));
  engine.Flush();

  QueryBroker broker(&replica, {});
  std::istringstream in(
      "STATS\n"
      "CLUSTER 100 3\n"
      "NEAREST 0.5 0.5\n"
      "ANOMALY 50 50\n"
      "CLUSTER -4\n"
      "BOGUS\n"
      "QUIT\n");
  std::ostringstream out;
  const std::size_t served = ServeLineProtocol(broker, in, out);
  EXPECT_EQ(served, 6u);  // 4 answered + 2 protocol errors

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("OK STATS", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("OK CLUSTER", 0), 0u) << line;
  // Centroid lines until END.
  std::size_t centroid_lines = 0;
  while (std::getline(lines, line) && line != "END") {
    EXPECT_EQ(line.rfind("C ", 0), 0u) << line;
    ++centroid_lines;
  }
  EXPECT_EQ(line, "END");
  EXPECT_GT(centroid_lines, 0u);
  EXPECT_LE(centroid_lines, 3u);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("OK NEAREST", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("OK ANOMALY", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("ERR ", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK BYE");
}

/// An empty replica answers honestly instead of crashing or blocking.
TEST(ServerTest, EmptyReplicaAnswersGracefully) {
  core::SnapshotPolicy policy;
  SnapshotReadReplica replica(policy, 0.0);
  QueryBroker broker(&replica, {});

  QueryRequest cluster;
  cluster.kind = QueryRequest::Kind::kClusterRecent;
  cluster.horizon = 10.0;
  const QueryResponse response = broker.Execute(cluster);
  EXPECT_TRUE(response.ok);
  EXPECT_FALSE(response.clustering.has_value());
  EXPECT_EQ(response.publish_seq, 0u);

  QueryRequest nearest;
  nearest.kind = QueryRequest::Kind::kNearest;
  nearest.values = {0.0};
  EXPECT_FALSE(broker.Execute(nearest).nearest.has_value());
}

}  // namespace
}  // namespace umicro::serve
