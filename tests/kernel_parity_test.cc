// Parity and exactness contract of the src/kernels layer
// (docs/kernels.md): element-wise update kernels are bit-identical
// across backends and to the ErrorClusterFeature reference; reduction
// kernels agree across backends within floating-point tolerance; and
// the batched ingest path keeps checkpoints byte-compatible with the
// per-point path.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster_feature.h"
#include "core/engine.h"
#include "core/expected_distance.h"
#include "core/umicro.h"
#include "kernels/cluster_table.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "stream/point.h"
#include "util/random.h"

namespace umicro::kernels {
namespace {

std::vector<Backend> TestableBackends() {
  std::vector<Backend> backends = {Backend::kScalar};
  if (MaxSupportedBackend() >= Backend::kSse2) {
    backends.push_back(Backend::kSse2);
  }
  if (MaxSupportedBackend() >= Backend::kAvx2) {
    backends.push_back(Backend::kAvx2);
  }
  return backends;
}

stream::UncertainPoint RandomPoint(util::Rng& rng, std::size_t dims,
                                   bool with_errors, double scale = 10.0) {
  stream::UncertainPoint point;
  point.values.resize(dims);
  for (std::size_t j = 0; j < dims; ++j) {
    point.values[j] = rng.Uniform(-scale, scale);
  }
  if (with_errors) {
    point.errors.resize(dims);
    for (std::size_t j = 0; j < dims; ++j) {
      point.errors[j] = rng.Uniform(0.0, scale / 5.0);
    }
  }
  return point;
}

/// Builds a table of `q` random clusters (and the parallel ECF structs)
/// of dimension `dims`, each holding a few points.
void BuildRandomClusters(util::Rng& rng, std::size_t dims, std::size_t q,
                         Backend backend, ClusterTable* table,
                         std::vector<core::ErrorClusterFeature>* ecfs) {
  table->Reset(dims);
  table->set_backend(backend);
  ecfs->clear();
  for (std::size_t i = 0; i < q; ++i) {
    const int members = 1 + static_cast<int>(rng.Uniform(0.0, 4.0));
    core::ErrorClusterFeature ecf(dims);
    for (int m = 0; m < members; ++m) {
      const stream::UncertainPoint point = RandomPoint(rng, dims, true);
      ecf.AddPoint(point);
      if (m == 0) {
        table->PushPointRow(point.values.data(), point.errors.data(), 1.0);
      } else {
        table->AddPoint(i, point.values.data(), point.errors.data(), 1.0);
      }
    }
    ecfs->push_back(std::move(ecf));
  }
}

// ---- Update kernels: bit-identical across backends and to the ECF ----

TEST(KernelUpdateParity, TableMatchesEcfBitExactly) {
  util::Rng rng(20260806);
  for (const Backend backend : TestableBackends()) {
    for (const std::size_t dims : {1u, 2u, 3u, 7u, 8u, 20u, 33u, 64u}) {
      ClusterTable table;
      std::vector<core::ErrorClusterFeature> ecfs;
      BuildRandomClusters(rng, dims, 17, backend, &table, &ecfs);
      for (std::size_t i = 0; i < ecfs.size(); ++i) {
        ASSERT_EQ(table.weight(i), ecfs[i].weight());
        for (std::size_t j = 0; j < dims; ++j) {
          // EXPECT_EQ on doubles is exact comparison -- the contract.
          EXPECT_EQ(table.cf1_row(i)[j], ecfs[i].cf1()[j])
              << "backend=" << BackendName(backend) << " d=" << dims;
          EXPECT_EQ(table.cf2_row(i)[j], ecfs[i].cf2()[j]);
          EXPECT_EQ(table.ef2_row(i)[j], ecfs[i].ef2()[j]);
        }
      }
    }
  }
}

TEST(KernelUpdateParity, ScaleAllMatchesEcfScaleBitExactly) {
  util::Rng rng(7);
  for (const Backend backend : TestableBackends()) {
    ClusterTable table;
    std::vector<core::ErrorClusterFeature> ecfs;
    BuildRandomClusters(rng, 20, 31, backend, &table, &ecfs);
    const double factor = std::exp2(-0.00217);
    table.ScaleAll(factor);
    for (auto& ecf : ecfs) ecf.Scale(factor);
    for (std::size_t i = 0; i < ecfs.size(); ++i) {
      EXPECT_EQ(table.weight(i), ecfs[i].weight());
      for (std::size_t j = 0; j < 20; ++j) {
        EXPECT_EQ(table.cf1_row(i)[j], ecfs[i].cf1()[j])
            << "backend=" << BackendName(backend);
        EXPECT_EQ(table.cf2_row(i)[j], ecfs[i].cf2()[j]);
        EXPECT_EQ(table.ef2_row(i)[j], ecfs[i].ef2()[j]);
      }
    }
  }
}

TEST(KernelUpdateParity, MergeAndRemoveMirrorEcfOps) {
  util::Rng rng(99);
  for (const Backend backend : TestableBackends()) {
    ClusterTable table;
    std::vector<core::ErrorClusterFeature> ecfs;
    BuildRandomClusters(rng, 12, 8, backend, &table, &ecfs);
    table.MergeRows(2, 5);
    ecfs[2].Merge(ecfs[5]);
    table.RemoveRow(5);
    ecfs.erase(ecfs.begin() + 5);
    ASSERT_EQ(table.rows(), ecfs.size());
    for (std::size_t i = 0; i < ecfs.size(); ++i) {
      EXPECT_EQ(table.weight(i), ecfs[i].weight());
      for (std::size_t j = 0; j < 12; ++j) {
        EXPECT_EQ(table.cf1_row(i)[j], ecfs[i].cf1()[j]);
        EXPECT_EQ(table.cf2_row(i)[j], ecfs[i].cf2()[j]);
        EXPECT_EQ(table.ef2_row(i)[j], ecfs[i].ef2()[j]);
      }
    }
  }
}

TEST(KernelUpdateParity, DenormalAndZeroErrorEdgeCases) {
  const double denormal = std::numeric_limits<double>::denorm_min();
  for (const Backend backend : TestableBackends()) {
    ClusterTable table(3);
    table.set_backend(backend);
    core::ErrorClusterFeature ecf(3);

    stream::UncertainPoint tiny;
    tiny.values = {denormal, -denormal, 0.0};
    tiny.errors = {denormal, 0.0, 1e-300};
    ecf.AddPoint(tiny);
    table.PushPointRow(tiny.values.data(), tiny.errors.data(), 1.0);

    stream::UncertainPoint no_errors;  // deterministic point: psi == 0
    no_errors.values = {1.0, 2.0, 3.0};
    ecf.AddPoint(no_errors);
    table.AddPoint(0, no_errors.values.data(), nullptr, 1.0);

    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(table.cf1_row(0)[j], ecf.cf1()[j])
          << "backend=" << BackendName(backend);
      EXPECT_EQ(table.cf2_row(0)[j], ecf.cf2()[j]);
      EXPECT_EQ(table.ef2_row(0)[j], ecf.ef2()[j]);
    }
    EXPECT_EQ(table.ef2_row(0)[1], 0.0);
  }
}

// ---- Reduction kernels: cross-backend tolerance parity ---------------

/// Relative-ish tolerance: reassociation error grows with dimension
/// count but stays within a few ulps of the magnitudes involved.
void ExpectClose(double a, double b, double magnitude) {
  EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, magnitude));
}

TEST(KernelReductionParity, BatchDistancesAcrossBackendsAndSizes) {
  util::Rng rng(1234);
  const auto backends = TestableBackends();
  for (const std::size_t dims : {1u, 5u, 8u, 20u, 64u}) {
    for (const std::size_t q : {1u, 3u, 16u, 100u, 256u}) {
      ClusterTable table;
      std::vector<core::ErrorClusterFeature> ecfs;
      BuildRandomClusters(rng, dims, q, Backend::kScalar, &table, &ecfs);
      const stream::UncertainPoint probe = RandomPoint(rng, dims, true);
      PointContext ctx;
      ctx.Prepare(table, probe.values.data(), probe.errors.data(), nullptr);

      std::vector<double> reference(q), out(q);
      BatchSquaredDistances(table, ctx, DistanceKind::kExpected,
                            Backend::kScalar, reference.data());
      // The scalar kernel must agree with the struct-based Lemma 2.2
      // evaluation (same math, different association -> tolerance).
      for (std::size_t i = 0; i < q; ++i) {
        const double expected =
            core::ExpectedSquaredDistance(probe, ecfs[i]);
        ExpectClose(reference[i], expected, expected);
      }
      for (const Backend backend : backends) {
        BatchSquaredDistances(table, ctx, DistanceKind::kExpected, backend,
                              out.data());
        for (std::size_t i = 0; i < q; ++i) {
          ExpectClose(out[i], reference[i], reference[i]);
        }
        BatchSquaredDistances(table, ctx, DistanceKind::kGeometric, backend,
                              out.data());
        for (std::size_t i = 0; i < q; ++i) {
          const double geo = core::GeometricSquaredDistance(probe, ecfs[i]);
          ExpectClose(out[i], geo, geo);
        }
      }
    }
  }
}

TEST(KernelReductionParity, DimensionVotesAcrossBackends) {
  util::Rng rng(4321);
  const auto backends = TestableBackends();
  for (const std::size_t dims : {1u, 4u, 8u, 20u, 33u, 64u}) {
    for (const std::size_t q : {1u, 7u, 64u, 256u}) {
      ClusterTable table;
      std::vector<core::ErrorClusterFeature> ecfs;
      BuildRandomClusters(rng, dims, q, Backend::kScalar, &table, &ecfs);

      // Global variances with a dead (zero-variance) dimension mixed in
      // to exercise the pruning mask.
      std::vector<double> variances(dims);
      std::vector<double> inv_scaled(dims);
      const double thresh = 3.0;
      for (std::size_t j = 0; j < dims; ++j) {
        variances[j] = (j % 5 == 4) ? 0.0 : rng.Uniform(0.5, 30.0);
        const double scaled = thresh * variances[j];
        inv_scaled[j] = scaled > 0.0 ? 1.0 / scaled : 0.0;
      }
      const stream::UncertainPoint probe = RandomPoint(rng, dims, true);
      PointContext ctx;
      ctx.Prepare(table, probe.values.data(), probe.errors.data(),
                  inv_scaled.data());

      for (const bool paper_form : {true, false}) {
        std::vector<double> reference(q), out(q);
        BatchDimensionVotes(table, ctx, paper_form, Backend::kScalar,
                            reference.data());
        // Cross-check the scalar tier against the standalone
        // DimensionCountingSimilarity (identical up to association).
        for (std::size_t i = 0; i < q; ++i) {
          const double expected = core::DimensionCountingSimilarity(
              probe, ecfs[i], variances, thresh,
              paper_form ? core::DistanceForm::kPaperExpected
                         : core::DistanceForm::kComparable);
          ExpectClose(reference[i], expected, static_cast<double>(dims));
        }
        for (const Backend backend : backends) {
          BatchDimensionVotes(table, ctx, paper_form, backend, out.data());
          for (std::size_t i = 0; i < q; ++i) {
            ExpectClose(out[i], reference[i], static_cast<double>(dims));
          }
        }
      }
    }
  }
}

TEST(KernelReductionParity, ClosestPairMatchesBruteForce) {
  util::Rng rng(555);
  for (const Backend backend : TestableBackends()) {
    for (const std::size_t q : {2u, 5u, 16u, 17u, 100u}) {
      ClusterTable table;
      std::vector<core::ErrorClusterFeature> ecfs;
      BuildRandomClusters(rng, 10, q, backend, &table, &ecfs);

      std::size_t best_a = 0, best_b = 1;
      double best_d2 = std::numeric_limits<double>::infinity();
      for (std::size_t a = 0; a + 1 < q; ++a) {
        for (std::size_t b = a + 1; b < q; ++b) {
          double d2 = 0.0;
          for (std::size_t j = 0; j < 10; ++j) {
            const double diff =
                ecfs[a].CentroidAt(j) - ecfs[b].CentroidAt(j);
            d2 += diff * diff;
          }
          if (d2 < best_d2) {
            best_d2 = d2;
            best_a = a;
            best_b = b;
          }
        }
      }
      std::size_t got_a = 0, got_b = 0;
      double got_d2 = 0.0;
      ClosestCentroidPair(table, backend, &got_a, &got_b, &got_d2);
      // Random centroids: ties have probability zero here (exact ties
      // are covered below), so the indices must match exactly; the
      // distance to tolerance.
      EXPECT_EQ(got_a, best_a) << "backend=" << BackendName(backend);
      EXPECT_EQ(got_b, best_b);
      ExpectClose(got_d2, best_d2, best_d2);
    }
  }
}

TEST(KernelReductionParity, ClosestPairBreaksExactTiesLexicographically) {
  // Integer coordinates keep every centroid and every squared distance
  // exact, so equal offsets give bit-equal distances on every tier. The
  // tied pairs (1, 2) and (0, 40) sit in different 16-row tiles; the
  // blocked traversal meets (1, 2) first, yet (0, 40) must win.
  constexpr std::size_t kDims = 10;
  constexpr std::size_t kRows = 48;
  for (const double offset : {0.0, 1.0}) {
    util::Rng rng(4242);
    std::vector<std::vector<double>> rows(kRows, std::vector<double>(kDims));
    for (auto& row : rows) {
      for (double& v : row) v = std::floor(rng.Uniform(-1000.0, 1000.0));
    }
    rows[40] = rows[0];
    rows[40][3] += offset;
    rows[2] = rows[1];
    rows[2][7] -= offset;
    for (const Backend backend : TestableBackends()) {
      ClusterTable table(kDims);
      table.set_backend(backend);
      for (const auto& row : rows) {
        table.PushPointRow(row.data(), nullptr, 1.0);
      }
      std::size_t a = 0, b = 0;
      double d2 = -1.0;
      ClosestCentroidPair(table, backend, &a, &b, &d2);
      EXPECT_EQ(a, 0u) << "backend=" << BackendName(backend);
      EXPECT_EQ(b, 40u) << "backend=" << BackendName(backend);
      EXPECT_EQ(d2, offset * offset);

      std::vector<std::uint32_t> nn(kRows);
      std::vector<double> nn_d2(kRows);
      ClosestCentroidNeighbors(table, backend, nn.data(), nn_d2.data());
      // Per row, ties go to the smaller neighbour index.
      EXPECT_EQ(nn[0], 40u);
      EXPECT_EQ(nn[40], 0u);
      EXPECT_EQ(nn[1], 2u);
      EXPECT_EQ(nn[2], 1u);
    }
  }
}

// ---- Batched ingest: semantics + checkpoint compatibility ------------

stream::UncertainPoint StreamPoint(util::Rng& rng, std::size_t dims,
                                   double timestamp) {
  stream::UncertainPoint point = RandomPoint(rng, dims, true, 5.0);
  point.timestamp = timestamp;
  point.label = static_cast<int>(rng.Uniform(0.0, 3.0));
  return point;
}

TEST(BatchedIngest, ProcessBatchMatchesPerPointExactly) {
  const std::size_t dims = 6;
  core::UMicroOptions options;
  options.num_micro_clusters = 12;
  options.decay_lambda = 0.001;
  core::UMicro per_point(dims, options);
  core::UMicro batched(dims, options);

  util::Rng rng(2024);
  std::vector<stream::UncertainPoint> points;
  for (std::size_t i = 0; i < 600; ++i) {
    points.push_back(StreamPoint(rng, dims, static_cast<double>(i)));
  }
  for (const auto& point : points) per_point.Process(point);
  // Uneven batch sizes, including 1-point batches.
  std::size_t offset = 0;
  const std::size_t sizes[] = {1, 7, 64, 128, 3, 397};
  for (const std::size_t size : sizes) {
    batched.ProcessBatch(
        std::span<const stream::UncertainPoint>(points).subspan(offset,
                                                                size));
    offset += size;
  }
  ASSERT_EQ(offset, points.size());

  ASSERT_EQ(per_point.clusters().size(), batched.clusters().size());
  for (std::size_t i = 0; i < per_point.clusters().size(); ++i) {
    const auto& a = per_point.clusters()[i];
    const auto& b = batched.clusters()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.ecf.weight(), b.ecf.weight());
    for (std::size_t j = 0; j < dims; ++j) {
      EXPECT_EQ(a.ecf.cf1()[j], b.ecf.cf1()[j]);
      EXPECT_EQ(a.ecf.cf2()[j], b.ecf.cf2()[j]);
      EXPECT_EQ(a.ecf.ef2()[j], b.ecf.ef2()[j]);
    }
  }
}

TEST(BatchedIngest, CheckpointRoundTripThroughBatchedPath) {
  const std::size_t dims = 4;
  core::EngineOptions options;
  options.umicro.num_micro_clusters = 10;
  options.snapshot.snapshot_every = 50;

  util::Rng rng(77);
  std::vector<stream::UncertainPoint> points;
  for (std::size_t i = 0; i < 500; ++i) {
    points.push_back(StreamPoint(rng, dims, static_cast<double>(i)));
  }
  const std::span<const stream::UncertainPoint> all(points);

  // Engine A ingests the first half batched, checkpoints, and keeps
  // going batched. Engine B restores the checkpoint and replays the
  // second half per-point. State must match exactly: the checkpoint
  // format is unchanged ("ucheckpoint 2" payloads serialize the ECF
  // structs, which the table mirrors bit-identically).
  core::UMicroEngine a(dims, options);
  a.ProcessBatch(all.subspan(0, 250));
  const core::EngineState checkpoint = a.ExportEngineState();
  a.ProcessBatch(all.subspan(250));

  core::UMicroEngine b(dims, options);
  ASSERT_TRUE(b.RestoreEngineState(checkpoint));
  for (std::size_t i = 250; i < points.size(); ++i) b.Process(points[i]);

  ASSERT_EQ(a.online().clusters().size(), b.online().clusters().size());
  for (std::size_t i = 0; i < a.online().clusters().size(); ++i) {
    const auto& ca = a.online().clusters()[i];
    const auto& cb = b.online().clusters()[i];
    EXPECT_EQ(ca.id, cb.id);
    EXPECT_EQ(ca.ecf.weight(), cb.ecf.weight());
    for (std::size_t j = 0; j < dims; ++j) {
      EXPECT_EQ(ca.ecf.cf1()[j], cb.ecf.cf1()[j]);
      EXPECT_EQ(ca.ecf.cf2()[j], cb.ecf.cf2()[j]);
      EXPECT_EQ(ca.ecf.ef2()[j], cb.ecf.ef2()[j]);
    }
  }
  EXPECT_EQ(a.points_processed(), b.points_processed());
  EXPECT_EQ(a.store().TotalStored(), b.store().TotalStored());
}

}  // namespace
}  // namespace umicro::kernels
