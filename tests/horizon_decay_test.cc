// Regression tests for horizon-query correctness under exponential
// decay (the bugs this layer fixes; see docs/serving.md "Correctness").
//
// 1. SubtractSnapshot must scale the older snapshot's ECFs by the
//    elapsed decay factor 2^(-lambda dt) before subtracting -- the raw
//    subtraction over-subtracts fresh mass and retains stale mass.
// 2. ClusterOverHorizon must prefer the at-or-before snapshot and
//    surface the realized horizon, never silently collapsing the window.
// 3. Near-total cancellation must drop the residual instead of keeping
//    a noise/noise pseudo-point that drags macro-centroids outside the
//    data bounding box.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/horizon.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "stream/point.h"
#include "util/random.h"

namespace umicro::core {
namespace {

using stream::UncertainPoint;

/// Sums a window's ECF statistics (aggregates are invariant to how the
/// mass is split across micro-clusters, as long as none was evicted).
struct WindowTotals {
  double weight = 0.0;
  std::vector<double> cf1;
  std::vector<double> cf2;
  std::vector<double> ef2;
};

WindowTotals SumWindow(const std::vector<MicroClusterState>& window,
                       std::size_t dims) {
  WindowTotals totals;
  totals.cf1.assign(dims, 0.0);
  totals.cf2.assign(dims, 0.0);
  totals.ef2.assign(dims, 0.0);
  for (const auto& cluster : window) {
    totals.weight += cluster.ecf.weight();
    for (std::size_t j = 0; j < dims; ++j) {
      totals.cf1[j] += cluster.ecf.cf1()[j];
      totals.cf2[j] += cluster.ecf.cf2()[j];
      totals.ef2[j] += cluster.ecf.ef2()[j];
    }
  }
  return totals;
}

/// Brute-force decayed totals over every point with timestamp strictly
/// inside (window_start, t_end], weighted 2^(-lambda (t_end - t_i)).
WindowTotals BruteForceWindow(const std::vector<UncertainPoint>& points,
                              double window_start, double t_end,
                              double lambda, std::size_t dims) {
  WindowTotals totals;
  totals.cf1.assign(dims, 0.0);
  totals.cf2.assign(dims, 0.0);
  totals.ef2.assign(dims, 0.0);
  for (const auto& point : points) {
    if (point.timestamp <= window_start || point.timestamp > t_end) continue;
    const double w = std::exp2(-lambda * (t_end - point.timestamp));
    totals.weight += w;
    for (std::size_t j = 0; j < dims; ++j) {
      totals.cf1[j] += w * point.values[j];
      totals.cf2[j] += w * point.values[j] * point.values[j];
      totals.ef2[j] += w * point.errors[j] * point.errors[j];
    }
  }
  return totals;
}

void ExpectTotalsNear(const WindowTotals& got, const WindowTotals& want,
                      double rel) {
  ASSERT_GT(want.weight, 0.0);
  EXPECT_NEAR(got.weight, want.weight, rel * want.weight);
  for (std::size_t j = 0; j < want.cf1.size(); ++j) {
    EXPECT_NEAR(got.cf1[j], want.cf1[j],
                rel * (std::abs(want.cf1[j]) + 1.0));
    EXPECT_NEAR(got.cf2[j], want.cf2[j], rel * (want.cf2[j] + 1.0));
    EXPECT_NEAR(got.ef2[j], want.ef2[j], rel * (want.ef2[j] + 1.0));
  }
}

/// End-to-end regression: a decayed engine's horizon query must match
/// the brute-force decayed recompute of exactly the realized window.
/// Pre-fix, the unscaled subtraction inflated the window weight by the
/// stale (un-decayed) share of the older snapshot.
class DecayedHorizonTest : public testing::TestWithParam<double> {};

TEST_P(DecayedHorizonTest, EngineWindowMatchesBruteForceRecompute) {
  const double lambda = GetParam();
  const std::size_t dims = 2;
  EngineConfig options;
  // A budget far above the stream length: no eviction or merge ever
  // fires, so aggregate window totals are exactly comparable.
  options.umicro.num_micro_clusters = 4096;
  options.umicro.decay_lambda = lambda;
  options.snapshot.snapshot_every = 64;
  UMicroEngine engine(dims, options);

  util::Rng rng(4242);
  std::vector<UncertainPoint> points;
  for (std::size_t i = 1; i <= 512; ++i) {
    points.emplace_back(
        std::vector<double>{rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)},
        std::vector<double>{rng.Uniform(0.0, 0.4), rng.Uniform(0.0, 0.4)},
        static_cast<double>(i));
    engine.Process(points.back());
  }
  const double t_end = points.back().timestamp;

  for (const double horizon : {96.0, 128.0, 200.0, 333.0}) {
    MacroClusteringOptions macro;
    macro.k = 3;
    const std::optional<HorizonClustering> result =
        engine.ClusterRecent(horizon, macro);
    ASSERT_TRUE(result.has_value()) << "horizon " << horizon;
    // At-or-before selection never shrinks the window silently.
    EXPECT_GE(result->realized_horizon, horizon);
    EXPECT_GE(result->realized_ratio, 1.0);
    const WindowTotals got = SumWindow(result->window, dims);
    const WindowTotals want = BruteForceWindow(
        points, t_end - result->realized_horizon, t_end, lambda, dims);
    ExpectTotalsNear(got, want, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Lambdas, DecayedHorizonTest,
                         testing::Values(0.0, 0.002, 0.01, 0.05));

/// Direct fuzz of SubtractSnapshot against the brute-force window, with
/// randomized cluster structure: clusters born before and after the
/// older snapshot, arbitrary timestamps, several lambdas.
TEST(SubtractSnapshotFuzzTest, ResidualMatchesBruteForceWindow) {
  util::Rng rng(777);
  const std::size_t dims = 3;
  for (int trial = 0; trial < 50; ++trial) {
    const double lambda = rng.Uniform(0.0, 0.1);
    const double t_s = rng.Uniform(50.0, 150.0);
    const double t_e = t_s + rng.Uniform(10.0, 200.0);
    const std::size_t num_clusters = 1 + (trial % 7);

    std::vector<MicroClusterState> older_states;
    std::vector<MicroClusterState> current_states;
    std::vector<UncertainPoint> all_points;

    for (std::size_t c = 0; c < num_clusters; ++c) {
      const bool existed_before = rng.Uniform(0.0, 1.0) < 0.7;
      ErrorClusterFeature at_older(dims);
      ErrorClusterFeature at_current(dims);
      const int old_points = existed_before ? 1 + (trial + 3) % 5 : 0;
      const int new_points = 1 + (trial + 1) % 4;
      for (int p = 0; p < old_points + new_points; ++p) {
        const double t = p < old_points ? rng.Uniform(0.0, t_s)
                                        : rng.Uniform(t_s + 1e-6, t_e);
        UncertainPoint point(
            std::vector<double>{rng.Uniform(-5.0, 5.0),
                                rng.Uniform(-5.0, 5.0),
                                rng.Uniform(-5.0, 5.0)},
            std::vector<double>{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0),
                                rng.Uniform(0.0, 1.0)},
            t);
        all_points.push_back(point);
        if (p < old_points) {
          at_older.AddPoint(point, std::exp2(-lambda * (t_s - t)));
        }
        at_current.AddPoint(point, std::exp2(-lambda * (t_e - t)));
      }
      if (existed_before) {
        older_states.push_back({c, 0.0, at_older});
      }
      current_states.push_back({c, 0.0, at_current});
    }
    const Snapshot older = Snapshot::FromStates(t_s, older_states);
    const Snapshot current = Snapshot::FromStates(t_e, current_states);

    const std::vector<MicroClusterState> window =
        SubtractSnapshot(current, older, lambda);
    const WindowTotals got = SumWindow(window, dims);
    const WindowTotals want =
        BruteForceWindow(all_points, t_s, t_e, lambda, dims);
    ExpectTotalsNear(got, want, 1e-6);
  }
}

/// The pre-fix failure mode, isolated: lambda > 0 and an old cluster
/// that received no new points. Raw subtraction leaves a spurious
/// positive residual (stale mass); the decay-corrected subtraction
/// cancels it exactly.
TEST(SubtractSnapshotTest, QuiescentClusterCancelsUnderDecay) {
  const double lambda = 0.05;
  const std::size_t dims = 2;
  UncertainPoint point({1.0, 2.0}, {0.1, 0.2}, 10.0);
  ErrorClusterFeature at_older(dims);
  at_older.AddPoint(point);

  const std::vector<MicroClusterState> older_states = {{1, 0.0, at_older}};
  const Snapshot older = Snapshot::FromStates(10.0, older_states);

  // 40 time units later the live copy has decayed by 2^(-0.05*40) = 1/4.
  ErrorClusterFeature at_current(dims);
  at_current.AddPoint(point, std::exp2(-lambda * 40.0));
  std::vector<MicroClusterState> current_states = {{1, 0.0, at_current}};
  Snapshot current = Snapshot::FromStates(50.0, current_states);

  const auto window = SubtractSnapshot(current, older, lambda);
  EXPECT_TRUE(window.empty())
      << "stale mass survived decay-corrected subtraction";

  // Sanity: the uncorrected subtraction (lambda = 0 passed to the
  // subtraction while the stream decayed) would clamp to zero here --
  // but with MORE current mass it retains a stale share instead.
  ErrorClusterFeature busier(dims);
  busier.AddPoint(point, std::exp2(-lambda * 40.0));
  busier.AddPoint(UncertainPoint({3.0, 4.0}, {0.1, 0.1}, 50.0));
  current_states[0].ecf = busier;
  current = Snapshot::FromStates(50.0, current_states);
  const auto corrected = SubtractSnapshot(current, older, lambda);
  ASSERT_EQ(corrected.size(), 1u);
  // Exactly the one new point remains.
  EXPECT_NEAR(corrected[0].ecf.weight(), 1.0, 1e-9);
  EXPECT_NEAR(corrected[0].ecf.CentroidAt(0), 3.0, 1e-9);
  EXPECT_NEAR(corrected[0].ecf.CentroidAt(1), 4.0, 1e-9);
}

/// Near-total cancellation: the residual weight is floating-point noise
/// relative to what was subtracted, so the window must drop it entirely
/// -- keeping it produced centroids at noise/noise coordinates far
/// outside the data bounding box (the "exploding centroid" regression).
TEST(SubtractSnapshotTest, CancellationNoiseIsDropped) {
  const std::size_t dims = 2;
  ErrorClusterFeature heavy(dims);
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    heavy.AddPoint(UncertainPoint(
        {rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)},
        {rng.Uniform(0.0, 0.1), rng.Uniform(0.0, 0.1)}, 1.0 + i * 0.001));
  }

  const std::vector<MicroClusterState> older_states = {{7, 0.0, heavy}};
  const Snapshot older = Snapshot::FromStates(2.0, older_states);

  // The "current" copy differs only by an epsilon of weight -- the kind
  // of residue round-off leaves when a cluster was quiescent.
  ErrorClusterFeature nearly(heavy);
  nearly.Scale(1.0 + 1e-13);
  const std::vector<MicroClusterState> current_states = {{7, 0.0, nearly}};
  const Snapshot current = Snapshot::FromStates(3.0, current_states);

  const auto window = SubtractSnapshot(current, older, /*decay_lambda=*/0.0);
  EXPECT_TRUE(window.empty()) << "cancellation noise kept as a residual";
}

/// End-to-end bounding-box guard: macro-centroids of every horizon query
/// stay inside the data bounding box padded by the largest uncertainty.
TEST(HorizonBoundingBoxTest, MacroCentroidsStayInsideDataBounds) {
  const std::size_t dims = 2;
  EngineConfig options;
  options.umicro.num_micro_clusters = 64;
  options.umicro.decay_lambda = 0.01;
  options.snapshot.snapshot_every = 32;
  UMicroEngine engine(dims, options);

  util::Rng rng(31337);
  const double lo = -2.0, hi = 2.0, max_err = 0.5;
  for (std::size_t i = 1; i <= 400; ++i) {
    engine.Process(UncertainPoint(
        {rng.Uniform(lo, hi), rng.Uniform(lo, hi)},
        {rng.Uniform(0.0, max_err), rng.Uniform(0.0, max_err)},
        static_cast<double>(i)));
  }
  MacroClusteringOptions macro;
  macro.k = 4;
  for (const double horizon : {40.0, 100.0, 250.0, 1000.0}) {
    const auto result = engine.ClusterRecent(horizon, macro);
    ASSERT_TRUE(result.has_value());
    for (const auto& centroid : result->macro.centroids) {
      for (std::size_t j = 0; j < dims; ++j) {
        EXPECT_GE(centroid[j], lo - max_err) << "horizon " << horizon;
        EXPECT_LE(centroid[j], hi + max_err) << "horizon " << horizon;
      }
    }
  }
}

/// Long-gap regression: when the stream pauses long enough that the
/// elapsed decay factor underflows to denormal or zero, the older
/// snapshot's mass is fully gone. Pre-fix, the denormal-scaled
/// subtraction left denormal-dust residuals whose centroids (dust/dust)
/// were numeric noise; the window must instead come back empty.
TEST(SubtractSnapshotTest, FullyDecayedGapYieldsEmptyWindowNotNoise) {
  const std::size_t dims = 2;
  ErrorClusterFeature old_mass(dims);
  old_mass.AddPoint(UncertainPoint({1.0, 2.0}, {0.1, 0.1}, 10.0));
  const std::vector<MicroClusterState> older_states = {{1, 0.0, old_mass}};
  const Snapshot older = Snapshot::FromStates(10.0, older_states);

  // Gaps chosen so 2^(-lambda dt) is denormal (2^-1050) and exactly
  // zero (2^-2000): both count as fully decayed.
  for (const double gap : {1050.0 / 0.01, 2000.0 / 0.01}) {
    ErrorClusterFeature live(old_mass);
    live.Scale(std::exp2(-0.01 * gap));  // what global decay did live
    const std::vector<MicroClusterState> current_states = {{1, 0.0, live}};
    const Snapshot current =
        Snapshot::FromStates(older.time + gap, current_states);

    const auto window = SubtractSnapshot(current, older, 0.01);
    EXPECT_TRUE(window.empty()) << "gap " << gap;
  }
}

/// The same gap end-to-end: after a full-decay pause, a horizon window
/// contains exactly the fresh post-gap mass, never ghost centroids from
/// the decayed-away era.
TEST(HorizonLongGapTest, WindowAfterFullDecayGapIsFreshMassOnly) {
  const std::size_t dims = 2;
  EngineConfig options;
  options.umicro.num_micro_clusters = 32;
  options.umicro.decay_lambda = 0.05;
  options.snapshot.snapshot_every = 10;
  UMicroEngine engine(dims, options);

  util::Rng rng(99);
  for (std::size_t i = 1; i <= 300; ++i) {
    engine.Process(UncertainPoint(
        {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)},
        {rng.Uniform(0.0, 0.2), rng.Uniform(0.0, 0.2)},
        static_cast<double>(i)));
  }
  // The pause: 2^(-0.05 * ~200000) underflows far past denormals.
  const double resume = 200000.0;
  for (std::size_t i = 0; i < 40; ++i) {
    engine.Process(UncertainPoint(
        {50.0 + rng.Uniform(-0.5, 0.5), 50.0 + rng.Uniform(-0.5, 0.5)},
        {0.1, 0.1}, resume + static_cast<double>(i)));
  }

  MacroClusteringOptions macro;
  macro.k = 1;
  for (const double horizon : {100.0, 10000.0, 1e6}) {
    const auto result = engine.ClusterRecent(horizon, macro);
    ASSERT_TRUE(result.has_value()) << "horizon " << horizon;
    ASSERT_EQ(result->macro.centroids.size(), 1u);
    for (std::size_t j = 0; j < dims; ++j) {
      EXPECT_NEAR(result->macro.centroids[0][j], 50.0, 1.0)
          << "horizon " << horizon;
    }
  }
}

/// Satellite of the clamped-fallback fix: a horizon that predates all
/// retained frames falls back to the nearest (oldest) snapshot, and the
/// clamp is surfaced twice -- realized_ratio < 1 on the result and the
/// snapshot.horizon_clamped counter in the engine registry.
TEST(HorizonSelectionTest, ClampedFallbackIncrementsCounter) {
  const std::size_t dims = 1;
  EngineConfig options;
  options.umicro.num_micro_clusters = 8;
  options.snapshot.snapshot_every = 10;
  UMicroEngine engine(dims, options);
  for (std::size_t i = 1; i <= 200; ++i) {
    engine.Process(UncertainPoint(std::vector<double>{i % 5 * 1.0},
                                  std::vector<double>{0.1},
                                  static_cast<double>(i)));
  }
  MacroClusteringOptions macro;
  macro.k = 2;
  const obs::Counter& clamped =
      engine.metrics().GetCounter("snapshot.horizon_clamped");

  // Well-covered horizon: no clamp.
  ASSERT_TRUE(engine.ClusterRecent(50.0, macro).has_value());
  EXPECT_EQ(clamped.value(), 0u);

  // Horizon beyond retention: clamped, counted, honestly reported.
  const auto over = engine.ClusterRecent(1e6, macro);
  ASSERT_TRUE(over.has_value());
  EXPECT_LT(over->realized_ratio, 1.0);
  EXPECT_EQ(clamped.value(), 1u);
  ASSERT_TRUE(engine.ClusterRecent(5e5, macro).has_value());
  EXPECT_EQ(clamped.value(), 2u);
}

/// Selection policy: at-or-before preferred (realized >= requested);
/// nearest only as the over-long-horizon fallback (realized < requested,
/// ratio surfaced honestly instead of silently).
TEST(HorizonSelectionTest, AtOrBeforePreferredNearestOnlyAsFallback) {
  const std::size_t dims = 1;
  EngineConfig options;
  options.umicro.num_micro_clusters = 8;
  options.snapshot.snapshot_every = 10;
  UMicroEngine engine(dims, options);
  for (std::size_t i = 1; i <= 200; ++i) {
    engine.Process(UncertainPoint(std::vector<double>{i % 5 * 1.0},
                                  std::vector<double>{0.1},
                                  static_cast<double>(i)));
  }
  MacroClusteringOptions macro;
  macro.k = 2;

  // Plenty of history at or before t - 50: the window must cover at
  // least the 50 asked for.
  auto mid = engine.ClusterRecent(50.0, macro);
  ASSERT_TRUE(mid.has_value());
  EXPECT_GE(mid->realized_horizon, 50.0);
  EXPECT_NEAR(mid->realized_ratio, mid->realized_horizon / 50.0, 1e-12);

  // A horizon longer than everything retained: fallback to the oldest
  // snapshot, realized < requested, and the ratio says so.
  auto over = engine.ClusterRecent(1e6, macro);
  ASSERT_TRUE(over.has_value());
  EXPECT_LT(over->realized_horizon, 1e6);
  EXPECT_LT(over->realized_ratio, 1.0);
  EXPECT_GT(over->realized_ratio, 0.0);
}

}  // namespace
}  // namespace umicro::core
