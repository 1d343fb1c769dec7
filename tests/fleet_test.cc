// EngineFleet API, EngineConfig consolidation, and protocol-v2 suite.
//
// Covers the fleet's tenant lifecycle (lazy creation, release/adopt,
// per-tenant queries), the consolidated EngineConfig, the
// idempotent snapshot-sink attach, and the serve line protocol's v2
// surface (HELLO capabilities, TENANT session selection, the
// tenant-qualified CLUSTER form) against both a multi-tenant resolver
// broker and the deprecated single-replica shim.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/engine.h"
#include "core/engine_core.h"
#include "fleet/engine_fleet.h"
#include "fleet/tenant_handle.h"
#include "io/state_io.h"
#include "serve/query_broker.h"
#include "serve/replica.h"
#include "serve/server.h"
#include "stream/point.h"
#include "util/random.h"

namespace umicro::fleet {
namespace {

constexpr std::size_t kDims = 3;

stream::UncertainPoint MakePoint(util::Rng& rng, double timestamp) {
  std::vector<double> values(kDims);
  std::vector<double> errors(kDims);
  for (std::size_t j = 0; j < kDims; ++j) {
    values[j] = rng.Gaussian(0.0, 1.0);
    errors[j] = rng.Uniform(0.0, 0.3);
  }
  return {std::move(values), std::move(errors), timestamp};
}

core::EngineConfig SmallConfig(std::size_t tenants) {
  core::EngineConfig config;
  config.umicro.num_micro_clusters = 8;
  config.fleet.tenants = tenants;
  config.fleet.workers = 2;
  return config;
}

// ---- EngineConfig consolidation ---------------------------------------

TEST(EngineConfigTest, TenantsRunTheFleetSnapshotPolicy) {
  core::EngineConfig config = SmallConfig(1);
  config.snapshot.snapshot_every = 1000;
  config.fleet.snapshot.snapshot_every = 50;
  EngineFleet fleet(kDims, config);
  util::Rng rng(3);
  for (std::size_t i = 0; i < 100; ++i) {
    fleet.Ingest(0, MakePoint(rng, static_cast<double>(i)));
  }
  fleet.Flush();
  // Two cadence snapshots at the fleet's cadence; none at the engine's.
  EXPECT_EQ(fleet.EnsureTenant(0).core().store().TotalStored(), 2u);
}

TEST(EngineConfigTest, FromConfigMapsTheServeSlice) {
  core::EngineConfig config;
  config.serve.threads = 9;
  config.serve.max_queue = 33;
  config.umicro.boundary_factor = 2.5;
  const serve::QueryBrokerOptions options =
      serve::QueryBrokerOptions::FromConfig(config);
  EXPECT_EQ(options.num_threads, 9u);
  EXPECT_EQ(options.max_queue, 33u);
  EXPECT_DOUBLE_EQ(options.boundary_factor, 2.5);
}

// ---- Tenant lifecycle --------------------------------------------------

TEST(EngineFleetTest, PreCreatesConfiguredTenantsAndCreatesLazily) {
  EngineFleet fleet(kDims, SmallConfig(4));
  EXPECT_EQ(fleet.tenant_count(), 4u);
  EXPECT_TRUE(fleet.HasTenant(3));
  EXPECT_FALSE(fleet.HasTenant(77));
  util::Rng rng(1);
  fleet.Ingest(77, MakePoint(rng, 1.0));  // lazily created
  fleet.Flush();
  EXPECT_TRUE(fleet.HasTenant(77));
  EXPECT_EQ(fleet.tenant_count(), 5u);
  EXPECT_EQ(fleet.TenantPoints(77), 1u);
  EXPECT_EQ(fleet.TenantPoints(0), 0u);
}

TEST(EngineFleetTest, IngestRoutesToTheAddressedTenantOnly) {
  EngineFleet fleet(kDims, SmallConfig(8));
  util::Rng rng(2);
  for (std::size_t i = 0; i < 400; ++i) {
    fleet.Ingest(i % 8, MakePoint(rng, static_cast<double>(i)));
  }
  fleet.Flush();
  for (std::uint64_t tenant = 0; tenant < 8; ++tenant) {
    EXPECT_EQ(fleet.TenantPoints(tenant), 50u) << "tenant " << tenant;
  }
  const FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.tenants, 8u);
  EXPECT_EQ(stats.points_ingested, 400u);
  EXPECT_GE(stats.ingest_skew, 1.0);
  // The tenants gauge tracks the live tenant count.
  EXPECT_DOUBLE_EQ(fleet.metrics().GetGauge("fleet.tenants").value(), 8.0);
}

TEST(EngineFleetTest, ClusterRecentAnswersPerTenantAndNulloptOnUnknown) {
  EngineFleet fleet(kDims, SmallConfig(2));
  util::Rng rng(3);
  for (std::size_t i = 0; i < 600; ++i) {
    fleet.Ingest(i % 2, MakePoint(rng, static_cast<double>(i)));
  }
  core::MacroClusteringOptions macro;
  macro.k = 2;
  const auto clustering = fleet.ClusterRecent(1, 200.0, macro);
  ASSERT_TRUE(clustering.has_value());
  EXPECT_FALSE(clustering->window.empty());
  EXPECT_FALSE(fleet.ClusterRecent(99, 200.0, macro).has_value());
}

TEST(EngineFleetTest, ReleaseAndAdoptMoveATenantWithItsState) {
  EngineFleet fleet(kDims, SmallConfig(2));
  util::Rng rng(4);
  for (std::size_t i = 0; i < 100; ++i) {
    fleet.Ingest(1, MakePoint(rng, static_cast<double>(i)));
  }
  fleet.Flush();
  const std::string before =
      io::EngineStateToString(fleet.ExportTenantState(1));

  TenantHandle handle = fleet.ReleaseTenant(1);
  ASSERT_TRUE(static_cast<bool>(handle));
  EXPECT_EQ(handle.id(), 1u);
  EXPECT_FALSE(fleet.HasTenant(1));
  EXPECT_EQ(handle.core().points_processed(), 100u);

  // Handles are movable: state travels with the handle, not the fleet.
  TenantHandle moved = std::move(handle);
  ASSERT_TRUE(fleet.AdoptTenant(std::move(moved)));
  EXPECT_TRUE(fleet.HasTenant(1));
  EXPECT_EQ(io::EngineStateToString(fleet.ExportTenantState(1)), before);

  // Releasing an unknown tenant yields an empty handle; adopting into an
  // occupied id is refused.
  EXPECT_FALSE(static_cast<bool>(fleet.ReleaseTenant(42)));
  const core::EngineConfig config = SmallConfig(0);
  TenantHandle duplicate(1, kDims, config.umicro, config.fleet.snapshot);
  EXPECT_FALSE(fleet.AdoptTenant(std::move(duplicate)));
}

// ---- Idempotent sink attach (the fleet-attach bugfix) ------------------

TEST(EngineCoreTest, ReattachingTheSameSinkNeverDoublePrimes) {
  core::EngineConfig config;
  config.umicro.num_micro_clusters = 8;
  config.fleet.snapshot.snapshot_every = 16;
  core::EngineCore engine(kDims, config.umicro, config.fleet.snapshot);
  util::Rng rng(5);
  for (std::size_t i = 0; i < 200; ++i) {
    engine.Process(MakePoint(rng, static_cast<double>(i)));
  }
  serve::SnapshotReadReplica replica(config.fleet.snapshot,
                                     config.umicro.decay_lambda);
  engine.AttachSnapshotSink(&replica);
  const std::uint64_t primed = replica.publish_seq();
  EXPECT_GT(primed, 0u);
  // The second attach of the SAME sink is a no-op: no re-priming, no
  // duplicate publications.
  engine.AttachSnapshotSink(&replica);
  EXPECT_EQ(replica.publish_seq(), primed);
}

TEST(EngineFleetTest, EnsureServingIsIdempotent) {
  EngineFleet fleet(kDims, SmallConfig(2));
  util::Rng rng(6);
  for (std::size_t i = 0; i < 300; ++i) {
    fleet.Ingest(0, MakePoint(rng, static_cast<double>(i)));
  }
  fleet.Flush();
  fleet.EnsureServing(0);
  const auto replica = fleet.Replica(0);
  ASSERT_NE(replica, nullptr);
  const std::uint64_t primed = replica->publish_seq();
  fleet.EnsureServing(0);  // same replica, no double prime
  EXPECT_EQ(fleet.Replica(0), replica);
  EXPECT_EQ(replica->publish_seq(), primed);
  fleet.StopServing(0);
  EXPECT_EQ(fleet.Replica(0), nullptr);
  EXPECT_EQ(fleet.Replica(1), nullptr);  // never served
}

// ---- Protocol v2 -------------------------------------------------------

std::string RunProtocol(serve::QueryBroker& broker,
                        const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  serve::ServeLineProtocol(broker, in, out);
  return out.str();
}

std::string FirstLine(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

class FleetProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fleet_ = std::make_unique<EngineFleet>(kDims, SmallConfig(3));
    util::Rng rng(7);
    for (std::size_t i = 0; i < 900; ++i) {
      fleet_->Ingest(i % 3, MakePoint(rng, static_cast<double>(i)));
    }
    fleet_->Flush();
    for (std::uint64_t tenant = 0; tenant < 3; ++tenant) {
      fleet_->EnsureServing(tenant);
    }
    serve::QueryBrokerOptions options;
    options.num_threads = 2;
    broker_ = std::make_unique<serve::QueryBroker>(
        fleet_->Resolver(), options, &fleet_->metrics());
  }

  std::unique_ptr<EngineFleet> fleet_;
  std::unique_ptr<serve::QueryBroker> broker_;
};

TEST_F(FleetProtocolTest, HelloAnnouncesProtocolAndTenantCapability) {
  const std::string hello = FirstLine(RunProtocol(*broker_, "HELLO\n"));
  EXPECT_NE(hello.find("OK HELLO proto=2"), std::string::npos) << hello;
  EXPECT_NE(hello.find("tenants=1"), std::string::npos) << hello;
  EXPECT_NE(hello.find("TENANT"), std::string::npos) << hello;
}

TEST_F(FleetProtocolTest, TenantQualifiedClusterTargetsThatTenant) {
  const std::string output =
      RunProtocol(*broker_, "CLUSTER 2 300 2\nQUIT\n");
  EXPECT_EQ(output.rfind("OK CLUSTER", 0), 0u) << output;
}

TEST_F(FleetProtocolTest, TenantCommandSelectsTheSessionTenant) {
  const std::string output =
      RunProtocol(*broker_, "TENANT 1\nCLUSTER 300 2\nQUIT\n");
  EXPECT_EQ(output.rfind("OK TENANT 1", 0), 0u) << output;
  EXPECT_NE(output.find("\nOK CLUSTER"), std::string::npos) << output;
}

TEST_F(FleetProtocolTest, UnknownTenantIsAnError) {
  const std::string output = RunProtocol(*broker_, "CLUSTER 9 300 2\n");
  EXPECT_EQ(output.rfind("ERR", 0), 0u) << output;
  EXPECT_NE(output.find("unknown tenant"), std::string::npos) << output;
}

TEST_F(FleetProtocolTest, MalformedTenantIdsAreRejected) {
  EXPECT_EQ(RunProtocol(*broker_, "TENANT x\n").rfind("ERR", 0), 0u);
  EXPECT_EQ(RunProtocol(*broker_, "TENANT -3\n").rfind("ERR", 0), 0u);
  EXPECT_EQ(RunProtocol(*broker_, "CLUSTER 1 2 3 4\n").rfind("ERR", 0),
            0u);
}

TEST(SingleTenantShimTest, OldConstructorServesOnlyTenantZero) {
  core::EngineConfig config;
  config.umicro.num_micro_clusters = 8;
  core::UMicroEngine engine(kDims, config);
  serve::SnapshotReadReplica replica(config.snapshot,
                                     config.umicro.decay_lambda);
  engine.AttachSnapshotSink(&replica);
  util::Rng rng(8);
  for (std::size_t i = 0; i < 400; ++i) {
    engine.Process(MakePoint(rng, static_cast<double>(i)));
  }
  engine.Flush();
  serve::QueryBrokerOptions options;
  options.num_threads = 1;
  serve::QueryBroker broker(&replica, options, &engine.metrics());
  EXPECT_FALSE(broker.multi_tenant());

  std::istringstream in(
      "HELLO\nCLUSTER 200 2\nCLUSTER 0 200 2\nTENANT 1\nQUIT\n");
  std::ostringstream out;
  serve::ServeLineProtocol(broker, in, out);
  // CLUSTER answers span multiple lines (header, C rows, END); keep
  // only the per-request status lines.
  std::vector<std::string> status;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("OK", 0) == 0 || line.rfind("ERR", 0) == 0) {
      status.push_back(line);
    }
  }
  ASSERT_GE(status.size(), 4u) << out.str();
  const std::string& hello = status[0];
  const std::string& v1 = status[1];
  const std::string& v2 = status[2];
  const std::string& tenant = status[3];
  EXPECT_NE(hello.find("tenants=0"), std::string::npos) << hello;
  // The v1 form and the explicit tenant-0 form answer identically.
  EXPECT_EQ(v1.rfind("OK CLUSTER", 0), 0u) << v1;
  EXPECT_EQ(v2.rfind("OK CLUSTER", 0), 0u) << v2;
  // Selecting a nonzero tenant on a single-tenant broker is refused.
  EXPECT_EQ(tenant.rfind("ERR", 0), 0u) << tenant;
}

}  // namespace
}  // namespace umicro::fleet
