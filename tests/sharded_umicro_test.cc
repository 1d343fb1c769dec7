// Shard-merge equivalence tests: the sharded pipeline against the
// sequential algorithm on the same stream.

#include "parallel/parallel_engine.h"

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine_core.h"
#include "core/umicro.h"
#include "obs/metrics.h"
#include "stream/dataset.h"
#include "synth/workloads.h"
#include "util/failpoints.h"

namespace umicro::parallel {
namespace {

/// Mass-conserving UMicro configuration: an effectively infinite
/// eviction horizon makes RetireOneCluster always merge (exact) instead
/// of evict (mass-dropping), so the additive totals over the cluster set
/// equal the totals over every point ever processed -- the precondition
/// for comparing sequential and sharded totals exactly.
core::UMicroOptions MassConservingOptions(std::size_t num_micro_clusters) {
  core::UMicroOptions options;
  options.num_micro_clusters = num_micro_clusters;
  options.eviction_horizon = 1e18;
  return options;
}

/// The sharded engine over `options` with the snapshot cadence off: the
/// bare ingest pipeline.
ParallelEngineOptions WithoutSnapshots(const ShardedUMicroOptions& options) {
  ParallelEngineOptions engine;
  engine.sharded = options;
  engine.snapshot.snapshot_every = 0;
  return engine;
}

/// Sums of (n, CF1_j, EF2_j) over a set of clusters.
struct EcfTotals {
  double n = 0.0;
  std::vector<double> cf1;
  std::vector<double> ef2;
};

EcfTotals TotalsOf(const core::Snapshot& clusters, std::size_t dimensions) {
  EcfTotals totals;
  totals.cf1.assign(dimensions, 0.0);
  totals.ef2.assign(dimensions, 0.0);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    totals.n += clusters.weight(i);
    for (std::size_t j = 0; j < dimensions; ++j) {
      totals.cf1[j] += clusters.cf1(i)[j];
      totals.ef2[j] += clusters.ef2(i)[j];
    }
  }
  return totals;
}

/// Mass-weighted purity over label histograms.
double WeightedPurity(const std::vector<stream::LabelHistogram>& histograms) {
  double dominant = 0.0;
  double total = 0.0;
  for (const auto& labels : histograms) {
    dominant += stream::DominantLabelFraction(labels) *
                stream::HistogramWeight(labels);
    total += stream::HistogramWeight(labels);
  }
  return total > 0.0 ? dominant / total : 0.0;
}

/// Asserts that two cluster sets are bit-identical (ids, creation
/// times and every ECF statistic): `expected` as values, `actual` in
/// record form.
void ExpectSameClusters(const std::vector<core::MicroCluster>& expected,
                        const core::LabeledFrame& actual,
                        std::size_t dimensions) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& a = expected[i];
    const core::Snapshot& b = actual.frame;
    EXPECT_EQ(a.id, b.id(i));
    EXPECT_EQ(a.creation_time, b.creation_time(i));
    EXPECT_EQ(a.ecf.weight(), b.weight(i));
    for (std::size_t j = 0; j < dimensions; ++j) {
      EXPECT_EQ(a.ecf.cf1()[j], b.cf1(i)[j]);
      EXPECT_EQ(a.ecf.cf2()[j], b.cf2(i)[j]);
      EXPECT_EQ(a.ecf.ef2()[j], b.ef2(i)[j]);
    }
  }
}

TEST(ShardedUMicroTest, OneShardIsBitIdenticalToSequential) {
  const stream::Dataset dataset =
      synth::MakeSynDriftWorkload(10000, 0.5, 42);

  core::UMicro sequential(dataset.dimensions(), MassConservingOptions(50));
  for (const auto& point : dataset.points()) sequential.Process(point);

  ShardedUMicroOptions options;
  options.umicro = MassConservingOptions(50);
  options.num_shards = 1;
  options.producer_batch = 64;
  options.merge_every = 2048;  // merges mid-stream must not disturb state
  ParallelUMicroEngine sharded(dataset.dimensions(), WithoutSnapshots(options));
  for (const auto& point : dataset.points()) sharded.Process(point);
  sharded.Flush();

  ExpectSameClusters(sequential.clusters(), sharded.GlobalClusters(),
                     dataset.dimensions());
  EXPECT_EQ(sharded.metrics().GetCounter("parallel.points_dropped").value(),
            0u);
}

TEST(ShardedUMicroTest, FourShardTotalsMatchSequentialExactly) {
  const stream::Dataset dataset =
      synth::MakeSynDriftWorkload(10000, 0.5, 42);

  core::UMicro sequential(dataset.dimensions(), MassConservingOptions(50));
  for (const auto& point : dataset.points()) sequential.Process(point);

  ShardedUMicroOptions options;
  options.umicro = MassConservingOptions(50);
  options.num_shards = 4;
  options.merge_every = 2500;
  ParallelUMicroEngine sharded(dataset.dimensions(), WithoutSnapshots(options));
  for (const auto& point : dataset.points()) sharded.Process(point);
  sharded.Flush();

  const EcfTotals seq =
      TotalsOf(sequential.TakeSnapshot(0.0), dataset.dimensions());
  const EcfTotals par =
      TotalsOf(sharded.GlobalClusters().frame, dataset.dimensions());

  // n is a sum of unit weights: exact in floating point at this size.
  EXPECT_EQ(par.n, seq.n);
  EXPECT_EQ(par.n, 10000.0);
  // CF1/EF2 sums are the same point contributions added in a different
  // order; ECF addition is exact, so any difference is pure FP rounding.
  for (std::size_t j = 0; j < dataset.dimensions(); ++j) {
    const double cf1_scale = std::max(1.0, std::abs(seq.cf1[j]));
    EXPECT_NEAR(par.cf1[j], seq.cf1[j], 1e-9 * cf1_scale) << "dim " << j;
    const double ef2_scale = std::max(1.0, std::abs(seq.ef2[j]));
    EXPECT_NEAR(par.ef2[j], seq.ef2[j], 1e-9 * ef2_scale) << "dim " << j;
  }

  // Clustering quality must be in the same regime as the sequential run.
  const double seq_purity = WeightedPurity(sequential.ClusterLabelHistograms());
  const double par_purity = WeightedPurity(sharded.GlobalClusters().labels);
  EXPECT_NEAR(par_purity, seq_purity, 0.1);

  // The merged view respects the global budget.
  EXPECT_LE(sharded.GlobalClusters().size(), 50u);
}

TEST(ShardedUMicroTest, MetricsSurfaceIsConsistent) {
  const stream::Dataset dataset =
      synth::MakeSynDriftWorkload(5000, 0.5, 3);

  ShardedUMicroOptions options;
  options.umicro = MassConservingOptions(40);
  options.num_shards = 3;
  options.merge_every = 1000;
  options.producer_batch = 32;
  options.queue_capacity = 16;
  ParallelUMicroEngine sharded(dataset.dimensions(), WithoutSnapshots(options));
  for (const auto& point : dataset.points()) sharded.Process(point);
  sharded.Flush();

  obs::MetricsRegistry& metrics = sharded.metrics();
  EXPECT_EQ(metrics.GetCounter("parallel.points_ingested").value(), 5000u);
  EXPECT_EQ(metrics.GetCounter("parallel.points_dropped").value(),
            0u);  // kBlock is lossless
  std::uint64_t processed = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string prefix = "parallel.shard" + std::to_string(i) + ".";
    processed += metrics.GetCounter(prefix + "points").value();
    EXPECT_LE(metrics.GetGauge(prefix + "queue_high_water").value(), 16.0);
    EXPECT_GT(metrics.GetGauge(prefix + "clusters").value(), 0.0);
  }
  EXPECT_EQ(processed, 5000u);
  // The shards share the umicro.* cells: their aggregate point count is
  // everything the workers processed.
  EXPECT_EQ(metrics.GetCounter("umicro.points").value(), processed);
  // 5000 points at merge_every=1000 -> 5 automatic merges + final Flush.
  EXPECT_GE(metrics.GetCounter("parallel.merges").value(), 5u);
  EXPECT_GT(metrics.GetGauge("parallel.global_clusters").value(), 0.0);
  const obs::Histogram& merge_micros =
      metrics.GetHistogram("parallel.merge_micros");
  EXPECT_EQ(merge_micros.count(),
            metrics.GetCounter("parallel.merges").value());
  EXPECT_GT(merge_micros.sum(), 0.0);
}

TEST(ShardedUMicroTest, FlushWithNothingNewDoesNotRebuild) {
  // The view is rebuilt only after a batch reached a shard queue or a
  // state was restored; a repeated flush or a read on a quiet pipeline
  // is free and is not counted as a merge.
  const stream::Dataset dataset = synth::MakeSynDriftWorkload(3000, 0.5, 5);
  ShardedUMicroOptions options;
  options.umicro = MassConservingOptions(30);
  options.num_shards = 2;
  options.merge_every = 0;
  ParallelUMicroEngine sharded(dataset.dimensions(), WithoutSnapshots(options));
  const obs::Counter& merges = sharded.metrics().GetCounter("parallel.merges");
  sharded.Flush();
  EXPECT_EQ(merges.value(), 0u);  // nothing ingested yet

  for (const auto& point : dataset.points()) sharded.Process(point);
  sharded.Flush();
  EXPECT_EQ(merges.value(), 1u);
  const core::LabeledFrame view = sharded.GlobalClusters();
  sharded.Flush();
  EXPECT_EQ(sharded.ClusterCentroids().size(), view.size());
  EXPECT_EQ(sharded.ClusterLabelHistograms().size(), view.size());
  EXPECT_EQ(merges.value(), 1u);

  // A restore rebuilds on the next flush, to the same view.
  const core::EngineState state = sharded.ExportEngineState();
  EXPECT_EQ(merges.value(), 1u);
  ASSERT_TRUE(sharded.RestoreEngineState(state));
  sharded.Flush();
  EXPECT_EQ(merges.value(), 2u);
  ASSERT_EQ(sharded.GlobalClusters().size(), view.size());
  const core::Snapshot& rebuilt = sharded.GlobalClusters().frame;
  const std::size_t dims = dataset.dimensions();
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(rebuilt.id(i), view.frame.id(i));
    EXPECT_EQ(std::vector<double>(rebuilt.cf1(i), rebuilt.cf1(i) + dims),
              std::vector<double>(view.frame.cf1(i), view.frame.cf1(i) + dims));
  }

  // One new point makes the view stale again.
  sharded.Process(dataset.points().front());
  sharded.Flush();
  EXPECT_EQ(merges.value(), 3u);
  obs::MetricsRegistry& metrics = sharded.metrics();
  EXPECT_EQ(metrics.GetHistogram("parallel.merge_micros").count(), 3u);
  EXPECT_EQ(metrics.GetHistogram("parallel.rebuild_micros").count(), 3u);
}

TEST(ShardedUMicroTest, DropPoliciesKeepAccountingExact) {
  // Tiny queues + drop policies: some batches may be shed depending on
  // scheduling, but ingested == processed + dropped must hold exactly
  // after a drain, and every drop must be counted.
  for (const BackpressurePolicy policy :
       {BackpressurePolicy::kDropOldest, BackpressurePolicy::kDropNewest}) {
    const stream::Dataset dataset =
        synth::MakeSynDriftWorkload(3000, 0.5, 11);
    ShardedUMicroOptions options;
    options.umicro = MassConservingOptions(30);
    options.num_shards = 2;
    options.queue_capacity = 2;
    options.producer_batch = 16;
    options.backpressure = policy;
    options.merge_every = 0;
    ParallelUMicroEngine sharded(dataset.dimensions(),
                                 WithoutSnapshots(options));
    for (const auto& point : dataset.points()) sharded.Process(point);
    sharded.Flush();

    obs::MetricsRegistry& metrics = sharded.metrics();
    std::uint64_t processed = 0;
    for (std::size_t i = 0; i < 2; ++i) {
      const std::string prefix = "parallel.shard" + std::to_string(i) + ".";
      processed += metrics.GetCounter(prefix + "points").value();
    }
    const std::uint64_t dropped =
        metrics.GetCounter("parallel.points_dropped").value();
    const std::uint64_t ingested =
        metrics.GetCounter("parallel.points_ingested").value();
    EXPECT_EQ(processed + dropped, ingested);
    EXPECT_EQ(ingested, 3000u);

    const EcfTotals totals =
        TotalsOf(sharded.GlobalClusters().frame, dataset.dimensions());
    EXPECT_EQ(totals.n, static_cast<double>(processed));
  }
}

TEST(ShardedUMicroTest, ClustererInterfaceMergesOnRead) {
  const stream::Dataset dataset =
      synth::MakeSynDriftWorkload(2000, 0.5, 5);
  ShardedUMicroOptions options;
  options.umicro = MassConservingOptions(30);
  options.num_shards = 2;
  options.merge_every = 0;
  ParallelUMicroEngine sharded(dataset.dimensions(), WithoutSnapshots(options));
  const stream::StreamClusterer& clusterer = sharded;
  for (const auto& point : dataset.points()) sharded.Process(point);

  // Reads through the interface force a merge: all mass is visible.
  const auto histograms = clusterer.ClusterLabelHistograms();
  double mass = 0.0;
  for (const auto& histogram : histograms) {
    mass += stream::HistogramWeight(histogram);
  }
  EXPECT_EQ(mass, 2000.0);
  EXPECT_FALSE(clusterer.ClusterCentroids().empty());
  EXPECT_EQ(clusterer.points_processed(), 2000u);
  EXPECT_EQ(clusterer.name(), "ShardedUMicro(2)");
}

/// Drives a one-shard pipeline so that its batches are recycled: after
/// every enqueue it waits until the worker has processed (and handed
/// back) everything enqueued so far, so each later enqueue refills a
/// spare buffer whose old points are overwritten in place.
class PacedOneShardFeed {
 public:
  PacedOneShardFeed(ParallelUMicroEngine* sharded, std::size_t producer_batch)
      : sharded_(sharded), producer_batch_(producer_batch) {}

  void Process(const stream::UncertainPoint& point) {
    sharded_->Process(point);
    if (++pending_ == producer_batch_) {
      enqueued_ += pending_;
      pending_ = 0;
      WaitProcessed();
    }
  }

  /// Accounts the partial batch a Flush or export just enqueued.
  void NoteFlushed() {
    enqueued_ += pending_;
    pending_ = 0;
  }

 private:
  void WaitProcessed() {
    const obs::Counter& processed =
        sharded_->metrics().GetCounter("parallel.shard0.points");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (processed.value() < enqueued_) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::yield();
    }
  }

  ParallelUMicroEngine* sharded_;
  std::size_t producer_batch_;
  std::size_t pending_ = 0;
  std::uint64_t enqueued_ = 0;
};

TEST(ShardedUMicroTest, RecycledPartialBatchesStayBitIdentical) {
  const stream::Dataset dataset = synth::MakeSynDriftWorkload(6000, 0.5, 17);
  const std::size_t dims = dataset.dimensions();
  core::UMicro sequential(dims, MassConservingOptions(50));

  ShardedUMicroOptions options;
  options.umicro = MassConservingOptions(50);
  options.num_shards = 1;
  options.producer_batch = 16;
  options.merge_every = 0;
  ParallelUMicroEngine sharded(dims, WithoutSnapshots(options));
  PacedOneShardFeed feed(&sharded, options.producer_batch);

  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const stream::UncertainPoint& point = dataset.points()[i];
    sequential.Process(point);
    feed.Process(point);
    // Odd positions: each flush and export finds a recycled buffer
    // partly refilled, with stale points beyond the fill.
    if (i == 997 || i == 2500 || i == 4001) {
      sharded.Flush();
      feed.NoteFlushed();
      ExpectSameClusters(sequential.clusters(), sharded.GlobalClusters(),
                         dims);
    }
    if (i == 3333) {
      const core::EngineState state = sharded.ExportEngineState();
      feed.NoteFlushed();
      ASSERT_EQ(state.shard_states.size(), 1u);
      ExpectSameClusters(sequential.clusters(),
                         state.shard_states[0].clusters, dims);
      EXPECT_EQ(state.points_ingested, i + 1);
    }
  }
  sharded.Flush();
  EXPECT_GT(sequential.clusters_merged(), 0u);
  ExpectSameClusters(sequential.clusters(), sharded.GlobalClusters(), dims);
}

TEST(ShardedUMicroTest, DropOldestDisplacesRecycledBatchesExactly) {
  const stream::Dataset dataset = synth::MakeSynDriftWorkload(3000, 0.5, 23);
  ShardedUMicroOptions options;
  options.umicro = MassConservingOptions(30);
  options.num_shards = 1;
  options.queue_capacity = 1;
  options.producer_batch = 8;
  options.backpressure = BackpressurePolicy::kDropOldest;
  options.merge_every = 0;
  ParallelUMicroEngine sharded(dataset.dimensions(), WithoutSnapshots(options));

  // A slow worker keeps the one-slot queue full, so most enqueues
  // displace a queued (often recycled) batch.
  util::FailpointRegistry::Instance().Arm("parallel.worker.stall",
                                          {.stall_millis = 1});
  for (const auto& point : dataset.points()) sharded.Process(point);
  util::FailpointRegistry::Instance().DisarmAll();
  sharded.Flush();

  obs::MetricsRegistry& metrics = sharded.metrics();
  const std::uint64_t processed =
      metrics.GetCounter("parallel.shard0.points").value();
  const std::uint64_t dropped =
      metrics.GetCounter("parallel.points_dropped").value();
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(processed + dropped, 3000u);
  EXPECT_EQ(metrics.GetCounter("parallel.points_ingested").value(), 3000u);
  const EcfTotals totals =
      TotalsOf(sharded.GlobalClusters().frame, dataset.dimensions());
  EXPECT_EQ(totals.n, static_cast<double>(processed));
}

TEST(ShardedUMicroTest, WorkerDeathWithRecycledBatchesInFlight) {
  const stream::Dataset dataset = synth::MakeSynDriftWorkload(4000, 0.5, 29);
  const std::size_t dims = dataset.dimensions();
  core::UMicro sequential(dims, MassConservingOptions(50));
  for (const auto& point : dataset.points()) sequential.Process(point);

  ShardedUMicroOptions options;
  options.umicro = MassConservingOptions(50);
  options.num_shards = 1;
  options.producer_batch = 16;
  options.queue_capacity = 8;
  options.merge_every = 0;
  options.supervisor.enabled = true;
  options.supervisor.poll_millis = 1;
  ParallelUMicroEngine sharded(dims, WithoutSnapshots(options));
  PacedOneShardFeed feed(&sharded, options.producer_batch);

  // The worker dies on its 6th pop and again on the first pop after 40
  // batches: both times the popped batch is a recycled buffer the
  // supervisor must apply as the orphan.
  util::FailpointRegistry::Instance().Arm("parallel.worker.death",
                                          {.skip = 5, .limit = 1});
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (i == 40 * options.producer_batch) {
      util::FailpointRegistry::Instance().Arm("parallel.worker.death",
                                              {.limit = 1});
    }
    feed.Process(dataset.points()[i]);
  }
  sharded.Flush();
  util::FailpointRegistry::Instance().DisarmAll();

  EXPECT_EQ(sharded.worker_restarts(), 2u);
  EXPECT_EQ(sharded.metrics().GetCounter("parallel.shard0.points").value(),
            4000u);
  // The orphan is applied before the replacement pops anything, so the
  // shard sees the stream in order: the sequential result, bit for bit.
  ExpectSameClusters(sequential.clusters(), sharded.GlobalClusters(), dims);
}

}  // namespace
}  // namespace umicro::parallel
