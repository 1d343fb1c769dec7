// Tests for the pyramidal time frame and subtractive horizon extraction.

#include "core/snapshot.h"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "stream/point.h"

namespace umicro::core {
namespace {

Snapshot MakeSnapshot(double time, std::vector<std::uint64_t> ids,
                      double weight_each = 1.0) {
  std::vector<MicroClusterState> states;
  for (std::uint64_t id : ids) {
    MicroClusterState state;
    state.id = id;
    state.creation_time = 0.0;
    state.ecf = ErrorClusterFeature::FromPoint(
        stream::UncertainPoint({static_cast<double>(id)}, time),
        weight_each);
    states.push_back(std::move(state));
  }
  return Snapshot::FromStates(time, states);
}

TEST(SnapshotStoreTest, OrderClassification) {
  SnapshotStore store(2, 2);
  EXPECT_EQ(store.OrderOf(1), 0u);
  EXPECT_EQ(store.OrderOf(2), 1u);
  EXPECT_EQ(store.OrderOf(3), 0u);
  EXPECT_EQ(store.OrderOf(4), 2u);
  EXPECT_EQ(store.OrderOf(6), 1u);
  EXPECT_EQ(store.OrderOf(8), 3u);
  EXPECT_EQ(store.OrderOf(12), 2u);
  EXPECT_EQ(store.OrderOf(1024), 10u);
}

TEST(SnapshotStoreTest, OrderClassificationBase3) {
  SnapshotStore store(3, 1);
  EXPECT_EQ(store.OrderOf(1), 0u);
  EXPECT_EQ(store.OrderOf(3), 1u);
  EXPECT_EQ(store.OrderOf(9), 2u);
  EXPECT_EQ(store.OrderOf(27), 3u);
  EXPECT_EQ(store.OrderOf(6), 1u);
}

TEST(SnapshotStoreTest, CapacityPerOrder) {
  SnapshotStore store(2, 3);
  EXPECT_EQ(store.CapacityPerOrder(), 9u);  // 2^3 + 1
  SnapshotStore store3(3, 2);
  EXPECT_EQ(store3.CapacityPerOrder(), 10u);  // 3^2 + 1
}

TEST(SnapshotStoreTest, RetentionIsBounded) {
  SnapshotStore store(2, 2);
  for (std::uint64_t tick = 1; tick <= 4096; ++tick) {
    store.Insert(tick, MakeSnapshot(static_cast<double>(tick), {1}));
  }
  // Each of the ~log2(4096)=12 orders keeps at most 2^2+1 = 5 snapshots.
  EXPECT_LE(store.TotalStored(), store.NumOrders() * 5);
  EXPECT_LE(store.TotalStored(), 70u);
  EXPECT_GE(store.TotalStored(), 12u);
}

TEST(SnapshotStoreTest, LogarithmicStorageGrowth) {
  SnapshotStore small(2, 2);
  SnapshotStore large(2, 2);
  for (std::uint64_t tick = 1; tick <= 1000; ++tick) {
    small.Insert(tick, MakeSnapshot(static_cast<double>(tick), {1}));
  }
  for (std::uint64_t tick = 1; tick <= 100000; ++tick) {
    large.Insert(tick, MakeSnapshot(static_cast<double>(tick), {1}));
  }
  // 100x more ticks should cost far less than 100x more storage.
  EXPECT_LT(large.TotalStored(), 3 * small.TotalStored());
}

TEST(SnapshotStoreTest, FindAtOrBefore) {
  SnapshotStore store(2, 2);
  for (std::uint64_t tick = 1; tick <= 64; ++tick) {
    store.Insert(tick, MakeSnapshot(static_cast<double>(tick), {1}));
  }
  const auto found = store.FindAtOrBefore(33.5);
  ASSERT_TRUE(found.has_value());
  EXPECT_LE(found->time, 33.5);
  // Recent region is dense (order-0 ring holds the last odd ticks), so
  // the match should be close.
  EXPECT_GE(found->time, 28.0);
}

TEST(SnapshotStoreTest, FindNearestPicksClosest) {
  SnapshotStore store(2, 1);
  store.Insert(8, MakeSnapshot(8.0, {1}));
  store.Insert(16, MakeSnapshot(16.0, {1}));
  const auto found = store.FindNearest(11.0);
  ASSERT_TRUE(found.has_value());
  EXPECT_DOUBLE_EQ(found->time, 8.0);
  const auto found2 = store.FindNearest(13.0);
  ASSERT_TRUE(found2.has_value());
  EXPECT_DOUBLE_EQ(found2->time, 16.0);
}

TEST(SnapshotStoreTest, EmptyStoreFindsNothing) {
  SnapshotStore store(2, 2);
  EXPECT_FALSE(store.FindAtOrBefore(100.0).has_value());
  EXPECT_FALSE(store.FindNearest(100.0).has_value());
}

TEST(SnapshotStoreTest, HorizonApproximationBound) {
  // Eq. 7: for any horizon h there is a stored snapshot h' with
  // |h - h'| / h <= 1/alpha^l, once enough snapshots exist.
  const std::size_t alpha = 2;
  const std::size_t l = 3;
  SnapshotStore store(alpha, l);
  const std::uint64_t now = 8192;
  for (std::uint64_t tick = 1; tick <= now; ++tick) {
    store.Insert(tick, MakeSnapshot(static_cast<double>(tick), {1}));
  }
  const double bound = 1.0 / std::pow(alpha, l);
  for (double h : {3.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 4000.0}) {
    const double target = static_cast<double>(now) - h;
    const auto found = store.FindNearest(target);
    ASSERT_TRUE(found.has_value());
    const double h_prime = static_cast<double>(now) - found->time;
    EXPECT_LE(std::abs(h - h_prime) / h, bound + 1e-9)
        << "horizon " << h << " matched to " << h_prime;
  }
}

TEST(SnapshotStoreTest, AtOrBeforeHorizonGuaranteeProperty) {
  // Property behind the horizon-collapse fix: with at-or-before
  // selection the realized horizon h' never undershoots (h' >= h), and
  // its relative overshoot is bounded by the pyramid's provable
  // fidelity 2/alpha^(l-1) (see the header comment; CluStream
  // Property 1) for every horizon the retention still covers. Checked
  // exhaustively over several (alpha, l) configurations.
  struct Config {
    std::size_t alpha, l;
  };
  for (const Config config : {Config{2, 3}, Config{2, 2}, Config{3, 2}}) {
    SnapshotStore store(config.alpha, config.l);
    const std::uint64_t now = 4096;
    for (std::uint64_t tick = 1; tick <= now; ++tick) {
      store.Insert(tick, MakeSnapshot(static_cast<double>(tick), {1}));
    }
    const double bound =
        2.0 / std::pow(static_cast<double>(config.alpha),
                       static_cast<double>(config.l) - 1.0);
    for (std::uint64_t h = 1; h <= now / 2; ++h) {
      const double target = static_cast<double>(now - h);
      const auto found = store.FindAtOrBefore(target);
      ASSERT_TRUE(found.has_value())
          << "alpha " << config.alpha << " l " << config.l << " h " << h;
      const double realized = static_cast<double>(now) - found->time;
      EXPECT_GE(realized, static_cast<double>(h));
      EXPECT_LE((realized - static_cast<double>(h)) / static_cast<double>(h),
                bound + 1e-9)
          << "alpha " << config.alpha << " l " << config.l << " h " << h
          << " realized " << realized;
    }
  }
}

TEST(SubtractSnapshotTest, SubtractsMatchingIds) {
  Snapshot older = MakeSnapshot(10.0, {1, 2}, 5.0);
  Snapshot current = MakeSnapshot(20.0, {1, 2}, 8.0);
  const auto window = SubtractSnapshot(current, older);
  ASSERT_EQ(window.size(), 2u);
  for (const auto& state : window) {
    EXPECT_NEAR(state.ecf.weight(), 3.0, 1e-12);
  }
}

TEST(SubtractSnapshotTest, KeepsClustersCreatedInsideHorizon) {
  Snapshot older = MakeSnapshot(10.0, {1}, 5.0);
  Snapshot current = MakeSnapshot(20.0, {1, 7}, 6.0);
  const auto window = SubtractSnapshot(current, older);
  ASSERT_EQ(window.size(), 2u);
  bool saw_new = false;
  for (const auto& state : window) {
    if (state.id == 7) {
      saw_new = true;
      EXPECT_NEAR(state.ecf.weight(), 6.0, 1e-12);  // kept whole
    } else {
      EXPECT_NEAR(state.ecf.weight(), 1.0, 1e-12);  // 6 - 5
    }
  }
  EXPECT_TRUE(saw_new);
}

TEST(SubtractSnapshotTest, DiscardsVanishedClusters) {
  Snapshot older = MakeSnapshot(10.0, {1, 2, 3}, 5.0);
  Snapshot current = MakeSnapshot(20.0, {1}, 6.0);
  const auto window = SubtractSnapshot(current, older);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].id, 1u);
}

TEST(SubtractSnapshotTest, DropsEmptyResiduals) {
  // Cluster 1 got no new points: identical statistics in both snapshots.
  Snapshot older = MakeSnapshot(10.0, {1}, 5.0);
  Snapshot current = MakeSnapshot(10.0, {1}, 5.0);
  current.time = 20.0;
  const auto window = SubtractSnapshot(current, older);
  EXPECT_TRUE(window.empty());
}

TEST(SubtractSnapshotTest, RecoversExactWindowStatistics) {
  // Build cluster statistics incrementally, snapshot midway and at the
  // end; the difference must be exactly the second half's statistics.
  ErrorClusterFeature all(1);
  ErrorClusterFeature first_half(1);
  ErrorClusterFeature second_half(1);
  for (int i = 0; i < 100; ++i) {
    stream::UncertainPoint point({static_cast<double>(i)},
                                 std::vector<double>{0.5},
                                 static_cast<double>(i));
    all.AddPoint(point);
    (i < 50 ? first_half : second_half).AddPoint(point);
  }

  const std::vector<MicroClusterState> mid_states = {{42u, 0.0, first_half}};
  const Snapshot mid = Snapshot::FromStates(49.0, mid_states);
  const std::vector<MicroClusterState> end_states = {{42u, 0.0, all}};
  const Snapshot end = Snapshot::FromStates(99.0, end_states);

  const auto window = SubtractSnapshot(end, mid);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_NEAR(window[0].ecf.weight(), second_half.weight(), 1e-9);
  EXPECT_NEAR(window[0].ecf.cf1()[0], second_half.cf1()[0], 1e-9);
  EXPECT_NEAR(window[0].ecf.cf2()[0], second_half.cf2()[0], 1e-6);
  EXPECT_NEAR(window[0].ecf.ef2()[0], second_half.ef2()[0], 1e-9);
}

}  // namespace
}  // namespace umicro::core
