// Fleet parity acceptance test.
//
// The fleet's core invariant: a tenant's engine state after interleaved
// ingest through the shared worker pool is BIT-IDENTICAL to an isolated
// single-engine run over that tenant's substream. The fleet pins every
// tenant to exactly one worker (preserving per-tenant point order) and
// drains per-tenant batches through EngineCore::ProcessBatch -- the same
// batched kernel path an isolated engine uses -- so the full-precision
// text export must match byte for byte, per tenant, for a 1000-tenant
// interleave.
//
// The isolated reference replays the fleet's deterministic batching rule
// (route every `tenant_batch` buffered points, flush the remainder), so
// the comparison pins down routing and batching, not just kernel math
// (which tests/kernel_parity_test.cc already covers).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/engine_core.h"
#include "fleet/engine_fleet.h"
#include "io/state_io.h"
#include "stream/dataset.h"
#include "util/random.h"

namespace umicro::fleet {
namespace {

constexpr std::size_t kDims = 4;
constexpr std::size_t kTenants = 1000;
constexpr std::size_t kPoints = 30000;  // ~30 points per tenant

stream::Dataset InterleavedStream(std::uint64_t seed) {
  util::Rng rng(seed);
  stream::Dataset dataset(kDims);
  for (std::size_t i = 0; i < kPoints; ++i) {
    const int cls = static_cast<int>(rng.NextBounded(3));
    std::vector<double> values(kDims);
    std::vector<double> errors(kDims);
    for (std::size_t j = 0; j < kDims; ++j) {
      values[j] = cls * 3.0 + rng.Gaussian(0.0, 0.5);
      errors[j] = rng.Uniform(0.0, 0.3);
    }
    dataset.Add(stream::UncertainPoint(std::move(values), std::move(errors),
                                       static_cast<double>(i), cls));
  }
  return dataset;
}

core::EngineConfig ParityConfig(double decay) {
  core::EngineConfig config;
  config.umicro.num_micro_clusters = 6;
  config.umicro.decay_lambda = decay;
  config.fleet.tenants = kTenants;
  config.fleet.workers = 8;
  config.fleet.snapshot.snapshot_every = 8;  // snapshots exercised too
  return config;
}

/// Replays one tenant's substream through an isolated EngineCore with
/// the fleet's exact batching rule.
std::string IsolatedReference(
    const stream::Dataset& dataset, std::uint64_t tenant,
    const core::EngineConfig& config) {
  core::EngineCore engine(kDims, config.umicro, config.fleet.snapshot);
  std::vector<stream::UncertainPoint> batch;
  batch.reserve(config.fleet.tenant_batch);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (i % kTenants != tenant) continue;
    batch.push_back(dataset[i]);
    if (batch.size() >= config.fleet.tenant_batch) {
      engine.ProcessBatch(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) engine.ProcessBatch(batch);
  engine.Flush();
  return io::EngineStateToString(engine.ExportState());
}

void RunParity(double decay) {
  const stream::Dataset dataset =
      InterleavedStream(decay > 0.0 ? 0xf1ee8 : 0xf1ee7);
  const core::EngineConfig config = ParityConfig(decay);
  EngineFleet fleet(kDims, config);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    fleet.Ingest(i % kTenants, dataset[i]);
  }
  fleet.Flush();
  ASSERT_EQ(fleet.tenant_count(), kTenants);

  std::size_t mismatches = 0;
  for (std::uint64_t tenant = 0; tenant < kTenants; ++tenant) {
    const std::string fleet_state =
        io::EngineStateToString(fleet.ExportTenantState(tenant));
    const std::string isolated =
        IsolatedReference(dataset, tenant, config);
    if (fleet_state != isolated) {
      ++mismatches;
      EXPECT_EQ(fleet_state, isolated) << "tenant " << tenant;
      if (mismatches > 3) FAIL() << "stopping after 4 mismatched tenants";
    }
  }
  EXPECT_EQ(mismatches, 0u);
  const FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.points_ingested, kPoints);
}

TEST(FleetParityTest, ThousandTenantsBitIdenticalToIsolatedRuns) {
  RunParity(/*decay=*/0.0);
}

TEST(FleetParityTest, ParityHoldsUnderDecay) {
  RunParity(/*decay=*/0.01);
}

}  // namespace
}  // namespace umicro::fleet
