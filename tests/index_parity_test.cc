// Assignment-parity tests for the centroid candidate index: a UMicro
// instance running with any index backend must make bit-identical
// decisions to the flat full-scan instance on the same stream -- same
// per-point absorbed/cluster_id/expected_distance, same final durable
// state. The index only shortlists; the exact kernels decide.

#include "index/centroid_index.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/umicro.h"
#include "parallel/parallel_engine.h"
#include "stream/point.h"
#include "util/random.h"

namespace umicro::core {
namespace {

using index::IndexKind;

UMicroOptions ExpectedDistanceOptions(std::size_t q, double lambda,
                                      IndexKind kind) {
  UMicroOptions options;
  options.num_micro_clusters = q;
  options.similarity = SimilarityMode::kExpectedDistance;
  options.decay_lambda = lambda;
  options.assign_index = kind;
  // Merge (exact) instead of evict so long streams exercise RemoveRow /
  // MergeRows invalidation on every retirement.
  options.eviction_horizon = 1e18;
  return options;
}

/// A stream with enough structure to keep many clusters alive and
/// enough adversarial content to stress the index: blob draws, exact
/// duplicates of earlier points (distance ties), and occasional
/// far-out novelties that force creations.
std::vector<stream::UncertainPoint> MakeStream(std::size_t count,
                                               std::size_t dims,
                                               double error_scale,
                                               std::uint64_t seed,
                                               std::size_t blobs = 24) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> centers(blobs);
  for (auto& center : centers) {
    center.resize(dims);
    for (auto& c : center) c = rng.Uniform(-50.0, 50.0);
  }
  std::vector<stream::UncertainPoint> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0 && i % 17 == 0) {
      // Exact duplicate of an earlier record: forces distance ties that
      // only first-wins ArgMin order resolves.
      stream::UncertainPoint copy = points[rng.NextBounded(points.size())];
      copy.timestamp = static_cast<double>(i);
      points.push_back(std::move(copy));
      continue;
    }
    const auto& center = centers[rng.NextBounded(blobs)];
    std::vector<double> values(dims);
    std::vector<double> errors(dims);
    const bool novelty = i % 97 == 0;
    for (std::size_t j = 0; j < dims; ++j) {
      values[j] = center[j] + rng.Gaussian(0.0, novelty ? 40.0 : 1.5);
      errors[j] = error_scale * std::abs(rng.Gaussian());
    }
    points.emplace_back(std::move(values), std::move(errors),
                        static_cast<double>(i));
  }
  return points;
}

/// One statistic row of a frame record as a vector.
std::vector<double> Row(const Snapshot& frame, const double* row) {
  return {row, row + frame.dims()};
}

void ExpectStatesBitIdentical(const UMicroState& a, const UMicroState& b) {
  const Snapshot& fa = a.clusters.frame;
  const Snapshot& fb = b.clusters.frame;
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    SCOPED_TRACE("cluster " + std::to_string(i));
    EXPECT_EQ(fa.id(i), fb.id(i));
    EXPECT_EQ(fa.creation_time(i), fb.creation_time(i));
    EXPECT_EQ(fa.weight(i), fb.weight(i));
    EXPECT_EQ(fa.last_update_time(i), fb.last_update_time(i));
    EXPECT_EQ(Row(fa, fa.cf1(i)), Row(fb, fb.cf1(i)));
    EXPECT_EQ(Row(fa, fa.cf2(i)), Row(fb, fb.cf2(i)));
    EXPECT_EQ(Row(fa, fa.ef2(i)), Row(fb, fb.ef2(i)));
  }
  EXPECT_EQ(a.next_cluster_id, b.next_cluster_id);
  EXPECT_EQ(a.points_processed, b.points_processed);
  EXPECT_EQ(a.clusters_created, b.clusters_created);
  EXPECT_EQ(a.clusters_evicted, b.clusters_evicted);
  EXPECT_EQ(a.clusters_merged, b.clusters_merged);
  EXPECT_EQ(a.global_variances, b.global_variances);
}

/// Runs the same stream through a flat-scan instance and an indexed
/// instance and requires bit-identical behaviour point by point.
void ExpectIndexedParity(const std::vector<stream::UncertainPoint>& points,
                         std::size_t dims, const UMicroOptions& flat_options,
                         IndexKind kind) {
  UMicroOptions indexed_options = flat_options;
  indexed_options.assign_index = kind;
  UMicro flat(dims, flat_options);
  UMicro indexed(dims, indexed_options);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto a = flat.ProcessAndExplain(points[i]);
    const auto b = indexed.ProcessAndExplain(points[i]);
    ASSERT_EQ(a.absorbed, b.absorbed) << "point " << i;
    ASSERT_EQ(a.cluster_id, b.cluster_id) << "point " << i;
    ASSERT_EQ(a.expected_distance, b.expected_distance) << "point " << i;
  }
  ExpectStatesBitIdentical(flat.ExportState(), indexed.ExportState());
}

struct GridCase {
  std::size_t dims;
  std::size_t q;
  double lambda;
  std::size_t points;
};

TEST(IndexParityTest, GridKdTree) {
  const GridCase grid[] = {
      {1, 512, 0.0, 1200}, {2, 64, 0.0, 2000},   {3, 8, 0.0, 1000},
      {7, 256, 0.001, 1500}, {16, 512, 0.0, 1200}, {16, 512, 0.0005, 1200},
      {64, 512, 0.0, 800},   {64, 1, 0.0, 300},    {5, 1, 0.001, 300},
      {32, 128, 0.0, 1500},
  };
  for (const auto& c : grid) {
    SCOPED_TRACE("d=" + std::to_string(c.dims) + " q=" + std::to_string(c.q) +
                 " lambda=" + std::to_string(c.lambda));
    // Enough blob centers to fill the cluster budget, so the index
    // really sees q-row tables (and merges once they overflow).
    const auto points = MakeStream(c.points, c.dims, 0.5, 1000 + c.dims,
                                   std::max<std::size_t>(c.q + c.q / 8, 24));
    ExpectIndexedParity(points, c.dims,
                        ExpectedDistanceOptions(c.q, c.lambda, IndexKind::kFlat),
                        IndexKind::kKdTree);
  }
}

TEST(IndexParityTest, ComparableDistanceForm) {
  // kComparable drops the cluster-error term: the index must price
  // s_i = 0 and still agree exactly.
  UMicroOptions options = ExpectedDistanceOptions(128, 0.0, IndexKind::kFlat);
  options.distance_form = DistanceForm::kComparable;
  const auto points = MakeStream(1500, 12, 0.5, 31);
  ExpectIndexedParity(points, 12, options, IndexKind::kKdTree);
}

TEST(IndexParityTest, ZeroErrorStream) {
  // Deterministic points against clusters whose EF2 is exactly zero:
  // the error terms vanish and ties between exact duplicates sharpen.
  const auto points = MakeStream(1500, 8, 0.0, 77);
  const auto options = ExpectedDistanceOptions(96, 0.0, IndexKind::kFlat);
  ExpectIndexedParity(points, 8, options, IndexKind::kKdTree);
}

TEST(IndexParityTest, DenormalErrorStream) {
  // Errors around 1e-170 square to denormals (1e-340 flushes past the
  // double range into true subnormals / zero); the slack arithmetic must
  // not poison pruning decisions.
  const auto points = MakeStream(1000, 6, 1e-170, 99);
  const auto options = ExpectedDistanceOptions(64, 0.0, IndexKind::kFlat);
  ExpectIndexedParity(points, 6, options, IndexKind::kKdTree);
}

TEST(IndexParityTest, IdenticalCentroidStress) {
  // Only 3 distinct locations but a budget of 32: most live clusters sit
  // at (nearly) the same centroid. Kd-tree splits see zero extent and
  // must stay exact.
  util::Rng rng(5);
  std::vector<stream::UncertainPoint> points;
  const double sites[3] = {-10.0, 0.0, 10.0};
  for (std::size_t i = 0; i < 1200; ++i) {
    const double site = sites[rng.NextBounded(3)];
    points.emplace_back(std::vector<double>{site, -site},
                        std::vector<double>{0.25, 0.25},
                        static_cast<double>(i));
  }
  const auto options = ExpectedDistanceOptions(32, 0.0, IndexKind::kFlat);
  ExpectIndexedParity(points, 2, options, IndexKind::kKdTree);
}

TEST(IndexParityTest, CountingSimilarityNeverBuildsAnIndex) {
  // The dimension-counting vote admits no safe Euclidean bound, so
  // requesting an index under it is a no-op (documented contract).
  UMicroOptions options;
  options.num_micro_clusters = 64;
  options.assign_index = IndexKind::kKdTree;
  UMicro clusterer(4, options);
  EXPECT_EQ(clusterer.assign_index(), nullptr);
  const auto points = MakeStream(500, 4, 0.5, 11);
  for (const auto& point : points) clusterer.Process(point);
  EXPECT_EQ(clusterer.assign_index(), nullptr);
}

TEST(IndexParityTest, AutoFallsBackOnSmallTables) {
  // kAuto gates the kd-tree behind min_rows = 64: with a budget of 16
  // the index object exists but never answers a query.
  auto options = ExpectedDistanceOptions(16, 0.0, IndexKind::kAuto);
  UMicro clusterer(8, options);
  const auto points = MakeStream(1000, 8, 0.5, 13);
  for (const auto& point : points) clusterer.Process(point);
  ASSERT_NE(clusterer.assign_index(), nullptr);
  EXPECT_EQ(clusterer.assign_index()->stats().queries, 0u);
  EXPECT_GT(clusterer.assign_index()->stats().fallbacks, 0u);
}

TEST(IndexParityTest, PruningActuallyHappens) {
  // Parity alone would pass for an index that returns every row. On a
  // well-separated workload the shortlist must be a strict subset and
  // lazy rebuilds must stay rare relative to queries.
  auto options = ExpectedDistanceOptions(128, 0.0, IndexKind::kKdTree);
  UMicro clusterer(8, options);
  const auto points = MakeStream(4000, 8, 0.25, 17, 144);
  for (const auto& point : points) clusterer.Process(point);
  const index::CentroidIndex* idx = clusterer.assign_index();
  ASSERT_NE(idx, nullptr);
  const auto& stats = idx->stats();
  ASSERT_GT(stats.queries, 0u);
  EXPECT_LT(stats.candidates, stats.scanned_rows / 2)
      << "index prunes less than half the scan on separated blobs";
  EXPECT_GE(stats.rebuilds, 1u);
  EXPECT_LT(stats.rebuilds, stats.queries);
}

TEST(IndexParityTest, RebuildsFollowStructuralChanges) {
  // A tight budget on a wide stream forces merges constantly; every
  // merge invalidates the snapshot, so rebuilds must keep climbing.
  auto options = ExpectedDistanceOptions(8, 0.0, IndexKind::kKdTree);
  options.assign_index = IndexKind::kKdTree;
  UMicro clusterer(4, options);
  const auto points = MakeStream(2000, 4, 0.5, 23);
  for (const auto& point : points) clusterer.Process(point);
  ASSERT_NE(clusterer.assign_index(), nullptr);
  EXPECT_GT(clusterer.assign_index()->stats().rebuilds, 4u);
}

TEST(IndexParityTest, CheckpointRoundTripThroughIndexedPath) {
  // Export mid-stream from an indexed instance, restore into both a
  // flat and an indexed successor, and require the continuations to
  // stay bit-identical: RestoreState must fully invalidate the index.
  const std::size_t dims = 10;
  const auto warmup = MakeStream(1000, dims, 0.5, 41);
  auto tail = MakeStream(1000, dims, 0.5, 43);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    tail[i].timestamp = static_cast<double>(warmup.size() + i);
  }

  UMicro source(dims, ExpectedDistanceOptions(96, 0.0005, IndexKind::kKdTree));
  for (const auto& point : warmup) source.Process(point);
  const UMicroState checkpoint = source.ExportState();

  UMicro flat(dims, ExpectedDistanceOptions(96, 0.0005, IndexKind::kFlat));
  UMicro indexed(dims, ExpectedDistanceOptions(96, 0.0005, IndexKind::kKdTree));
  flat.RestoreState(checkpoint);
  indexed.RestoreState(checkpoint);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const auto a = flat.ProcessAndExplain(tail[i]);
    const auto b = indexed.ProcessAndExplain(tail[i]);
    ASSERT_EQ(a.cluster_id, b.cluster_id) << "point " << i;
    ASSERT_EQ(a.expected_distance, b.expected_distance) << "point " << i;
  }
  ExpectStatesBitIdentical(flat.ExportState(), indexed.ExportState());
}

TEST(IndexParityTest, ShardedPipelineParity) {
  // Same sharded topology, flat vs indexed per-shard instances: the
  // partition and merge schedule are deterministic, so the merged
  // global view must match bit for bit. Exercises index invalidation
  // across the shard merge / reconcile path, and gives TSan real
  // concurrent index traffic to watch.
  const std::size_t dims = 8;
  const auto points = MakeStream(6000, dims, 0.5, 59, 80);

  auto run = [&](IndexKind kind) {
    parallel::ParallelEngineOptions options;
    options.sharded.umicro = ExpectedDistanceOptions(64, 0.0, kind);
    options.sharded.num_shards = 2;
    options.sharded.producer_batch = 32;
    options.sharded.merge_every = 512;
    options.snapshot.snapshot_every = 0;
    parallel::ParallelUMicroEngine sharded(dims, options);
    for (const auto& point : points) sharded.Process(point);
    sharded.Flush();
    return sharded.GlobalClusters();
  };

  const Snapshot flat = run(IndexKind::kFlat).frame;
  const Snapshot indexed = run(IndexKind::kKdTree).frame;
  ASSERT_EQ(flat.size(), indexed.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    SCOPED_TRACE("cluster " + std::to_string(i));
    EXPECT_EQ(flat.id(i), indexed.id(i));
    EXPECT_EQ(flat.weight(i), indexed.weight(i));
    EXPECT_EQ(Row(flat, flat.cf1(i)), Row(indexed, indexed.cf1(i)));
    EXPECT_EQ(Row(flat, flat.ef2(i)), Row(indexed, indexed.ef2(i)));
  }
}

}  // namespace
}  // namespace umicro::core
