// A5: google-benchmark micro-benchmarks of the hot kernels.
//
// The paper stresses that the expected distance costs O(d) -- the same
// asymptotic cost as the deterministic distance -- because it is the most
// repeated operation of the algorithm. These kernels measure exactly
// that, plus ECF maintenance and the end-to-end per-point cost, and the
// checkpoint text codec (write and parse of a warmed engine).

#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baseline/clustream.h"
#include "core/cluster_feature.h"
#include "core/engine.h"
#include "core/expected_distance.h"
#include "core/umicro.h"
#include "io/state_io.h"
#include "kernels/cluster_table.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "parallel/shard_merge.h"
#include "stream/dataset.h"
#include "stream/point.h"
#include "synth/workloads.h"
#include "util/random.h"

namespace {

using umicro::core::ErrorClusterFeature;
using umicro::kernels::Backend;
using umicro::kernels::ClusterTable;
using umicro::kernels::PointContext;
using umicro::stream::UncertainPoint;

UncertainPoint MakePoint(umicro::util::Rng& rng, std::size_t dims) {
  std::vector<double> values(dims);
  std::vector<double> errors(dims);
  for (std::size_t j = 0; j < dims; ++j) {
    values[j] = rng.Uniform(-1.0, 1.0);
    errors[j] = rng.Uniform(0.0, 0.3);
  }
  return UncertainPoint(std::move(values), std::move(errors), 0.0);
}

void BM_EcfAddPoint(benchmark::State& state) {
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  umicro::util::Rng rng(1);
  const UncertainPoint point = MakePoint(rng, dims);
  ErrorClusterFeature ecf(dims);
  for (auto _ : state) {
    ecf.AddPoint(point);
    benchmark::DoNotOptimize(ecf);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EcfAddPoint)->Arg(10)->Arg(20)->Arg(34)->Arg(64);

void BM_EcfMerge(benchmark::State& state) {
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  umicro::util::Rng rng(2);
  ErrorClusterFeature a(dims);
  ErrorClusterFeature b(dims);
  for (int i = 0; i < 100; ++i) {
    a.AddPoint(MakePoint(rng, dims));
    b.AddPoint(MakePoint(rng, dims));
  }
  for (auto _ : state) {
    ErrorClusterFeature merged = a;
    merged.Merge(b);
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_EcfMerge)->Arg(20)->Arg(64);

void BM_EcfDecayScale(benchmark::State& state) {
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  umicro::util::Rng rng(3);
  ErrorClusterFeature ecf(dims);
  for (int i = 0; i < 100; ++i) ecf.AddPoint(MakePoint(rng, dims));
  for (auto _ : state) {
    ecf.Scale(0.999999);
    benchmark::DoNotOptimize(ecf);
  }
}
BENCHMARK(BM_EcfDecayScale)->Arg(20)->Arg(64);

void BM_ExpectedDistance(benchmark::State& state) {
  // The paper's O(d) claim: time should scale linearly with d.
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  umicro::util::Rng rng(4);
  ErrorClusterFeature ecf(dims);
  for (int i = 0; i < 50; ++i) ecf.AddPoint(MakePoint(rng, dims));
  const UncertainPoint x = MakePoint(rng, dims);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        umicro::core::ExpectedSquaredDistance(x, ecf));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpectedDistance)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_DimensionCountingSimilarity(benchmark::State& state) {
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  umicro::util::Rng rng(5);
  ErrorClusterFeature ecf(dims);
  for (int i = 0; i < 50; ++i) ecf.AddPoint(MakePoint(rng, dims));
  const UncertainPoint x = MakePoint(rng, dims);
  const std::vector<double> variances(dims, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(umicro::core::DimensionCountingSimilarity(
        x, ecf, variances, 3.0));
  }
}
BENCHMARK(BM_DimensionCountingSimilarity)->Arg(8)->Arg(32)->Arg(128);

void BM_UMicroProcessPoint(benchmark::State& state) {
  // End-to-end per-point cost at the paper's configuration (d=20,
  // q=100 micro-clusters).
  const std::size_t dims = 20;
  umicro::core::UMicroOptions options;
  options.num_micro_clusters = static_cast<std::size_t>(state.range(0));
  umicro::core::UMicro algorithm(dims, options);
  umicro::util::Rng rng(6);
  // Warm up so the cluster set is full.
  for (int i = 0; i < 2000; ++i) {
    UncertainPoint p = MakePoint(rng, dims);
    p.timestamp = i;
    algorithm.Process(p);
  }
  double ts = 2000.0;
  for (auto _ : state) {
    UncertainPoint p = MakePoint(rng, dims);
    p.timestamp = ts;
    ts += 1.0;
    algorithm.Process(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UMicroProcessPoint)->Arg(25)->Arg(100)->Arg(200);

void BM_UMicroProcessPointWithDecay(benchmark::State& state) {
  const std::size_t dims = 20;
  umicro::core::UMicroOptions options;
  options.num_micro_clusters = 100;
  options.decay_lambda = 1.0 / 5000.0;
  umicro::core::UMicro algorithm(dims, options);
  umicro::util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    UncertainPoint p = MakePoint(rng, dims);
    p.timestamp = i;
    algorithm.Process(p);
  }
  double ts = 2000.0;
  for (auto _ : state) {
    UncertainPoint p = MakePoint(rng, dims);
    p.timestamp = ts;
    ts += 1.0;
    algorithm.Process(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UMicroProcessPointWithDecay);

void BM_CluStreamProcessPoint(benchmark::State& state) {
  // The "optimistic baseline" per-point cost, for the UMicro/CluStream
  // relative-throughput claim of Figures 8-10.
  const std::size_t dims = 20;
  umicro::baseline::CluStreamOptions options;
  options.num_micro_clusters = static_cast<std::size_t>(state.range(0));
  umicro::baseline::CluStream algorithm(dims, options);
  umicro::util::Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    UncertainPoint p = MakePoint(rng, dims);
    p.timestamp = i;
    algorithm.Process(p);
  }
  double ts = 2000.0;
  for (auto _ : state) {
    UncertainPoint p = MakePoint(rng, dims);
    p.timestamp = ts;
    ts += 1.0;
    algorithm.Process(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CluStreamProcessPoint)->Arg(25)->Arg(100)->Arg(200);

void BM_UncertainRadius(benchmark::State& state) {
  const std::size_t dims = static_cast<std::size_t>(state.range(0));
  umicro::util::Rng rng(9);
  ErrorClusterFeature ecf(dims);
  for (int i = 0; i < 100; ++i) ecf.AddPoint(MakePoint(rng, dims));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecf.UncertainRadiusSquared());
  }
}
BENCHMARK(BM_UncertainRadius)->Arg(20)->Arg(64);

void BM_SnapshotSubtract(benchmark::State& state) {
  // Horizon extraction cost at the paper's scale (100 micro-clusters).
  const std::size_t dims = 20;
  umicro::util::Rng rng(10);
  std::vector<umicro::core::MicroClusterState> older_states;
  std::vector<umicro::core::MicroClusterState> current_states;
  for (std::uint64_t id = 0; id < 100; ++id) {
    umicro::core::MicroClusterState state_a;
    state_a.id = id;
    ErrorClusterFeature ecf(dims);
    for (int p = 0; p < 10; ++p) ecf.AddPoint(MakePoint(rng, dims));
    state_a.ecf = ecf;
    older_states.push_back(state_a);
    for (int p = 0; p < 10; ++p) ecf.AddPoint(MakePoint(rng, dims));
    umicro::core::MicroClusterState state_b;
    state_b.id = id;
    state_b.ecf = std::move(ecf);
    current_states.push_back(std::move(state_b));
  }
  const auto older =
      umicro::core::Snapshot::FromStates(100.0, older_states);
  const auto current =
      umicro::core::Snapshot::FromStates(200.0, current_states);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        umicro::core::SubtractSnapshot(current, older));
  }
}
BENCHMARK(BM_SnapshotSubtract);

// ---------------------------------------------------------------------
// Batch kernels over the SoA cluster table (src/kernels). The benchmark
// argument selects the tier: 0 = scalar, 2 = avx2. Tiers the host CPU
// cannot run are not registered.
// ---------------------------------------------------------------------

void SupportedBackendArgs(benchmark::internal::Benchmark* bench) {
  for (const umicro::kernels::Backend tier :
       umicro::kernels::SupportedBackends()) {
    bench->Arg(static_cast<int>(tier));
  }
}

/// A table of q random clusters (50 points each) at the given dims.
ClusterTable MakeTable(umicro::util::Rng& rng, std::size_t dims,
                       std::size_t q) {
  ClusterTable table(dims);
  table.Reserve(q);
  for (std::size_t i = 0; i < q; ++i) {
    const UncertainPoint seed_point = MakePoint(rng, dims);
    table.PushPointRow(seed_point.values.data(), seed_point.errors.data(),
                       1.0);
    for (int p = 1; p < 50; ++p) {
      const UncertainPoint point = MakePoint(rng, dims);
      table.AddPoint(i, point.values.data(), point.errors.data(), 1.0);
    }
  }
  return table;
}

void BM_KernelBatchVotes(benchmark::State& state) {
  // Dimension-counting similarity of one point against all q=100
  // clusters at the paper's d=20 -- the per-point cost that dominates
  // Figures 8-10.
  const std::size_t dims = 20;
  const std::size_t q = 100;
  const auto backend = static_cast<Backend>(state.range(0));
  umicro::util::Rng rng(11);
  const ClusterTable table = MakeTable(rng, dims, q);
  const UncertainPoint x = MakePoint(rng, dims);
  const std::vector<double> inv_scaled(dims, 1.0 / 1.5);
  PointContext ctx;
  std::vector<double> votes(q);
  for (auto _ : state) {
    ctx.Prepare(table, x.values.data(), x.errors.data(), inv_scaled.data());
    umicro::kernels::BatchDimensionVotes(table, ctx, true, backend,
                                         votes.data());
    benchmark::DoNotOptimize(
        umicro::kernels::ArgMax(votes.data(), votes.size()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelBatchVotes)->Apply(SupportedBackendArgs);

void BM_KernelBatchDistances(benchmark::State& state) {
  // Expected squared distance (Lemma 2.2) of one point to all q=100
  // clusters at d=20: the assignment fallback scan.
  const std::size_t dims = 20;
  const std::size_t q = 100;
  const auto backend = static_cast<Backend>(state.range(0));
  umicro::util::Rng rng(12);
  const ClusterTable table = MakeTable(rng, dims, q);
  const UncertainPoint x = MakePoint(rng, dims);
  PointContext ctx;
  std::vector<double> distances(q);
  for (auto _ : state) {
    ctx.Prepare(table, x.values.data(), x.errors.data(), nullptr);
    umicro::kernels::BatchSquaredDistances(
        table, ctx, umicro::kernels::DistanceKind::kExpected, backend,
        distances.data());
    benchmark::DoNotOptimize(
        umicro::kernels::ArgMin(distances.data(), distances.size()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelBatchDistances)->Apply(SupportedBackendArgs);

void BM_KernelClosestPair(benchmark::State& state) {
  // Cache-blocked q*(q-1)/2 centroid scan feeding maintenance merges.
  const std::size_t dims = 20;
  const std::size_t q = 100;
  const auto backend = static_cast<Backend>(state.range(0));
  umicro::util::Rng rng(13);
  const ClusterTable table = MakeTable(rng, dims, q);
  for (auto _ : state) {
    std::size_t a = 0;
    std::size_t b = 0;
    double d2 = 0.0;
    umicro::kernels::ClosestCentroidPair(table, backend, &a, &b, &d2);
    benchmark::DoNotOptimize(a + b);
    benchmark::DoNotOptimize(d2);
  }
}
BENCHMARK(BM_KernelClosestPair)->Apply(SupportedBackendArgs);

void BM_KernelTableAddPoint(benchmark::State& state) {
  // Fused ECF update + derived-row refresh (bit-identical across tiers).
  const std::size_t dims = 20;
  const auto backend = static_cast<Backend>(state.range(0));
  umicro::util::Rng rng(14);
  ClusterTable table = MakeTable(rng, dims, 8);
  table.set_backend(backend);
  const UncertainPoint x = MakePoint(rng, dims);
  std::size_t row = 0;
  for (auto _ : state) {
    table.AddPoint(row, x.values.data(), x.errors.data(), 1.0);
    row = (row + 1) % table.rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelTableAddPoint)->Apply(SupportedBackendArgs);

void BM_KernelTableScaleAll(benchmark::State& state) {
  // Fused decay over all q=100 rows (bit-identical across tiers).
  const std::size_t dims = 20;
  const auto backend = static_cast<Backend>(state.range(0));
  umicro::util::Rng rng(15);
  ClusterTable table = MakeTable(rng, dims, 100);
  table.set_backend(backend);
  for (auto _ : state) {
    table.ScaleAll(0.999999);
    benchmark::DoNotOptimize(table.ef2n2_sum(0));
  }
}
BENCHMARK(BM_KernelTableScaleAll)->Apply(SupportedBackendArgs);

void BM_UMicroProcessBatch(benchmark::State& state) {
  // End-to-end batched ingest at the paper's d=20 / q=100, through
  // whatever tier DetectBackend() picked. Compare against
  // BM_UMicroProcessPoint/100 for the batching win.
  const std::size_t dims = 20;
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  umicro::core::UMicroOptions options;
  options.num_micro_clusters = 100;
  umicro::core::UMicro algorithm(dims, options);
  umicro::util::Rng rng(16);
  for (int i = 0; i < 2000; ++i) {
    UncertainPoint p = MakePoint(rng, dims);
    p.timestamp = i;
    algorithm.Process(p);
  }
  double ts = 2000.0;
  std::vector<UncertainPoint> points;
  points.reserve(batch);
  for (auto _ : state) {
    state.PauseTiming();
    points.clear();
    for (std::size_t i = 0; i < batch; ++i) {
      UncertainPoint p = MakePoint(rng, dims);
      p.timestamp = ts;
      ts += 1.0;
      points.push_back(std::move(p));
    }
    state.ResumeTiming();
    algorithm.ProcessBatch(std::span<const UncertainPoint>(points));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_UMicroProcessBatch)->Arg(16)->Arg(64)->Arg(256);

void BM_ShardMerge(benchmark::State& state) {
  // One global-view rebuild of the sharded pipeline: the argument is the
  // shard count, each shard holding 100 SynDrift clusters at d=20 (the
  // syndrift_sharded configuration at 2 shards). The merge reconciles
  // the concatenated clusters back to a budget of 100 on the
  // DetectBackend() tier, reading the shard frames in place.
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  const umicro::stream::Dataset dataset =
      umicro::synth::MakeSynDriftWorkload(20000 * shards, 0.5, 17);
  umicro::core::UMicroOptions options;
  options.num_micro_clusters = 100;
  std::vector<std::unique_ptr<umicro::core::UMicro>> algorithms;
  for (std::size_t i = 0; i < shards; ++i) {
    algorithms.push_back(std::make_unique<umicro::core::UMicro>(
        dataset.dimensions(), options));
  }
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    algorithms[i % shards]->Process(dataset.points()[i]);
  }
  std::vector<umicro::core::LabeledFrame> shard_views;
  for (const auto& algorithm : algorithms) {
    shard_views.push_back({algorithm->TakeSnapshot(0.0),
                           algorithm->ClusterLabelHistograms()});
  }
  std::vector<const umicro::core::LabeledFrame*> shard_sets;
  for (const auto& view : shard_views) shard_sets.push_back(&view);
  umicro::parallel::ShardMergeOptions merge_options;
  merge_options.dimensions = dataset.dimensions();
  merge_options.dimension_threshold = options.dimension_threshold;
  merge_options.global_budget = 100;
  for (auto _ : state) {
    std::size_t reconciliations = 0;
    auto merged = umicro::parallel::MergeShardClusterSets(
        shard_sets, merge_options, &reconciliations);
    benchmark::DoNotOptimize(merged.frame.record(0));
    benchmark::DoNotOptimize(reconciliations);
  }
}
BENCHMARK(BM_ShardMerge)->Arg(2)->Arg(4)->Unit(benchmark::kMicrosecond);

/// The state of a UMicroEngine with the default config warmed on 20k
/// SynDrift points: the shape of e2ebench's syndrift_seq checkpoint
/// (about 6 MB of text, mostly the pyramidal store's full frames).
const umicro::core::EngineState& WarmedEngineState() {
  static const umicro::core::EngineState state = [] {
    const umicro::stream::Dataset dataset =
        umicro::synth::MakeSynDriftWorkload(20000, 0.5, 1);
    umicro::core::UMicroEngine engine(dataset.dimensions(),
                                      umicro::core::EngineConfig{});
    engine.ProcessBatch(dataset.points());
    engine.Flush();
    return engine.ExportEngineState();
  }();
  return state;
}

void BM_EngineStateToString(benchmark::State& state) {
  const umicro::core::EngineState& engine_state = WarmedEngineState();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = umicro::io::EngineStateToString(engine_state);
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_EngineStateToString)->Unit(benchmark::kMillisecond);

void BM_ParseEngineState(benchmark::State& state) {
  const std::string text =
      umicro::io::EngineStateToString(WarmedEngineState());
  for (auto _ : state) {
    std::optional<umicro::core::EngineState> parsed =
        umicro::io::ParseEngineState(text);
    if (!parsed.has_value()) {
      state.SkipWithError("checkpoint does not parse");
      break;
    }
    benchmark::DoNotOptimize(parsed->store.orders.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseEngineState)->Unit(benchmark::kMillisecond);

}  // namespace
