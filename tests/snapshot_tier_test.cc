// Tests for the snapshot store's two encodings (docs/snapshots.md).
//
// The load-bearing claim is exactness: a delta-encoded store must
// materialize every retained frame bit-identical to what the classic
// full store holds, across dimensionalities, cluster budgets, and decay
// settings, and through checkpoint round-trips and fleet recovery.
// Bit-identity is asserted through io::SnapshotToString /
// io::EngineStateToString, whose %.17g rendering distinguishes any two
// doubles with different bit patterns (including -0.0 vs 0.0). The
// byte accounting must equal a per-cluster walk in both encodings, and
// a restore under mismatched pyramid geometry must fail fast without
// touching the store.

#include "core/snapshot.h"

#include <unistd.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/engine_core.h"
#include "fleet/engine_fleet.h"
#include "fleet/fleet_checkpoint.h"
#include "io/snapshot_io.h"
#include "io/state_io.h"
#include "stream/point.h"
#include "util/paths.h"

namespace umicro::core {
namespace {

// Deterministic stream over kStreamCenters well-separated centers,
// visited in blocks of 16 points: the window between two snapshots
// touches only one or two micro-clusters while the other ~18 keep their
// exact bits (the delta encoder's working regime), and every center is
// revisited on the next cycle so old clusters still receive updates.
constexpr std::size_t kStreamCenters = 20;

std::vector<stream::UncertainPoint> DriftStream(std::uint64_t seed,
                                                std::size_t dims,
                                                std::size_t count) {
  std::vector<stream::UncertainPoint> points;
  points.reserve(count);
  std::uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((state >> 11) & 0xffffffffull) / 4294967296.0;
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t center = (i / 16) % kStreamCenters;
    std::vector<double> values(dims);
    std::vector<double> errors(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      const double drift = static_cast<double>(i) * 0.001;
      values[d] = static_cast<double>(center) * 100.0 +
                  static_cast<double>(d) + drift + (next() - 0.5);
      errors[d] = 0.1 + 0.2 * next();
    }
    points.emplace_back(std::move(values), std::move(errors),
                        static_cast<double>(i + 1));
  }
  return points;
}

// Every retained frame of `store`, materialized and rendered, keyed by
// (order, tick) so two stores' retentions can be compared directly.
std::map<std::pair<std::size_t, std::uint64_t>, std::string> FrameStrings(
    const SnapshotStore& store) {
  std::map<std::pair<std::size_t, std::uint64_t>, std::string> frames;
  for (std::size_t order = 0; order < store.NumOrders(); ++order) {
    for (std::size_t index = 0; index < store.OrderSize(order); ++index) {
      const EncodedFrame& frame = store.FrameAt(order, index);
      const std::optional<Snapshot> snapshot =
          store.MaterializeFrame(order, index);
      if (snapshot.has_value()) {
        frames[{order, frame.tick}] = io::SnapshotToString(*snapshot);
      }
    }
  }
  return frames;
}

EngineConfig TierOptions(std::size_t q, double decay,
                         SnapshotStoreMode mode) {
  EngineConfig options;
  options.umicro.num_micro_clusters = q;
  options.umicro.decay_lambda = decay;
  options.snapshot.snapshot_every = 4;
  options.snapshot.pyramid_alpha = 2;
  options.snapshot.pyramid_l = 2;
  options.snapshot.tiering.mode = mode;
  return options;
}

/// A sequential core over the umicro + snapshot fields of `config`.
EngineCore MakeCore(std::size_t dims, const EngineConfig& config) {
  return EngineCore(dims, config.umicro, config.snapshot);
}

// ---- Delta parity ------------------------------------------------------

TEST(SnapshotTierTest, DeltaStoreIsBitIdenticalAcrossTheGrid) {
  for (const std::size_t dims : {1u, 3u, 16u}) {
    for (const std::size_t q : {4u, 32u, 128u}) {
      for (const double decay : {0.0, 0.02}) {
        EngineCore full =
            MakeCore(dims, TierOptions(q, decay, SnapshotStoreMode::kFull));
        EngineCore delta =
            MakeCore(dims, TierOptions(q, decay, SnapshotStoreMode::kDelta));
        const auto points =
            DriftStream(dims * 1000 + q * 10 + (decay > 0 ? 1 : 0), dims, 600);
        for (const auto& point : points) {
          full.Process(point);
          delta.Process(point);
        }

        const auto full_frames = FrameStrings(full.store());
        const auto delta_frames = FrameStrings(delta.store());
        ASSERT_GT(full_frames.size(), 4u);
        ASSERT_EQ(full_frames.size(), delta_frames.size())
            << "dims " << dims << " q " << q << " decay " << decay;
        for (const auto& [key, text] : full_frames) {
          const auto it = delta_frames.find(key);
          ASSERT_NE(it, delta_frames.end())
              << "order " << key.first << " tick " << key.second;
          EXPECT_EQ(text, it->second)
              << "dims " << dims << " q " << q << " decay " << decay
              << " order " << key.first << " tick " << key.second;
        }

        // The frames really are delta-encoded, and on a cluster budget
        // wide enough to keep the centers apart the encoding shrinks
        // the store. Two regimes are excluded from the compression
        // claim (parity above still holds in both): a tiny budget
        // merges constantly, and exponential decay rescales every
        // statistic between snapshots, so no cluster is bit-stable.
        const SnapshotTierStats stats = delta.store().TierStats();
        EXPECT_GT(stats.delta_frames, 0u);
        if (q >= kStreamCenters && decay == 0.0) {
          EXPECT_LT(stats.delta_ratio, 1.0)
              << "dims " << dims << " q " << q << " decay " << decay;
        }

        // Query-level parity: the subtractive horizon pipeline answers
        // through the same frames.
        for (const double horizon : {10.0, 50.0, 200.0}) {
          MacroClusteringOptions macro;
          macro.k = 3;
          const auto a = full.ClusterRecent(horizon, macro);
          const auto b = delta.ClusterRecent(horizon, macro);
          ASSERT_EQ(a.has_value(), b.has_value());
          if (a.has_value()) {
            EXPECT_EQ(a->realized_horizon, b->realized_horizon);
            EXPECT_EQ(a->realized_ratio, b->realized_ratio);
            ASSERT_EQ(a->macro.centroids.size(), b->macro.centroids.size());
            for (std::size_t c = 0; c < a->macro.centroids.size(); ++c) {
              EXPECT_EQ(a->macro.centroids[c], b->macro.centroids[c]);
            }
          }
        }
      }
    }
  }
}

TEST(SnapshotTierTest, DeltaCheckpointRoundTripIsBitIdentical) {
  const std::size_t dims = 4;
  EngineCore engine =
      MakeCore(dims, TierOptions(32, 0.01, SnapshotStoreMode::kDelta));
  for (const auto& point : DriftStream(0xc0ffee, dims, 800)) {
    engine.Process(point);
  }

  const EngineState exported = engine.ExportState();
  const std::string text = io::EngineStateToString(exported);
  const std::optional<EngineState> parsed = io::ParseEngineState(text);
  ASSERT_TRUE(parsed.has_value());

  EngineCore restored =
      MakeCore(dims, TierOptions(32, 0.01, SnapshotStoreMode::kDelta));
  ASSERT_TRUE(restored.RestoreState(*parsed));

  // The serialized state (deltas stay deltas on disk) and every
  // materialized frame round-trip exactly.
  EXPECT_EQ(io::EngineStateToString(restored.ExportState()), text);
  EXPECT_EQ(FrameStrings(restored.store()), FrameStrings(engine.store()));
}

TEST(SnapshotTierTest, FleetRecoveryWithDeltaFramesIsExact) {
  constexpr std::size_t kDims = 3;
  constexpr std::size_t kTenants = 16;
  const std::string dir = ::testing::TempDir() + "snapshot_tier_fleet_" +
                          std::to_string(::getpid());
  ASSERT_TRUE(util::EnsureDirectory(dir));

  core::EngineConfig config;
  config.fleet.tenants = kTenants;
  config.fleet.workers = 2;
  config.fleet.snapshot.snapshot_every = 8;
  // FleetConfig defaults to delta frames; assert rather than assume.
  ASSERT_EQ(config.fleet.snapshot.tiering.mode, SnapshotStoreMode::kDelta);

  const auto points = DriftStream(0xfee7, kDims, 4000);
  std::map<std::uint64_t, std::string> reference;
  {
    fleet::EngineFleet original(kDims, config);
    for (std::size_t i = 0; i < points.size(); ++i) {
      original.Ingest(i % kTenants, points[i]);
    }
    original.Flush();
    fleet::FleetCheckpointer checkpointer(dir, config.checkpoint);
    ASSERT_TRUE(checkpointer.CheckpointNow(original));
    for (std::uint64_t tenant = 0; tenant < kTenants; ++tenant) {
      reference[tenant] =
          io::EngineStateToString(original.ExportTenantState(tenant));
    }
  }

  fleet::RecoveredFleet recovered =
      fleet::RecoverOrCreateFleet(dir, kDims, config);
  ASSERT_TRUE(recovered.recovered);
  EXPECT_EQ(recovered.tenants_restored, kTenants);
  EXPECT_EQ(recovered.corrupt_skipped, 0u);
  for (std::uint64_t tenant = 0; tenant < kTenants; ++tenant) {
    EXPECT_EQ(io::EngineStateToString(
                  recovered.fleet->ExportTenantState(tenant)),
              reference[tenant])
        << "tenant " << tenant;
  }
}

// ---- Byte accounting ---------------------------------------------------

// Inserts the same drifting synthetic snapshots into both stores.
void FillStores(SnapshotStore& a, SnapshotStore& b, std::size_t dims,
                std::uint64_t ticks) {
  const auto points = DriftStream(0x7ea, dims, 8);
  for (std::uint64_t tick = 1; tick <= ticks; ++tick) {
    std::vector<MicroClusterState> states;
    for (std::uint64_t id = 0; id < 8; ++id) {
      MicroClusterState state;
      state.id = id;
      state.creation_time = 0.25;
      state.ecf = ErrorClusterFeature::FromPoint(
          points[id], 1.0 + 0.001 * static_cast<double>(tick * (id + 1)));
      states.push_back(std::move(state));
    }
    Snapshot snapshot =
        Snapshot::FromStates(static_cast<double>(tick), states);
    a.Insert(tick, snapshot);
    b.Insert(tick, std::move(snapshot));
  }
}

// The per-cluster walk the store's byte accounting used to run over every
// cluster of every frame: 64 bytes of frame overhead, and per exact
// cluster a 32-byte header plus cf1/cf2/ef2 at its own dimensionality.
std::size_t PerClusterBytes(const EncodedFrame& frame) {
  auto exact = [](const Snapshot& records, std::size_t i) {
    return 32 + 3 * records.State(i).ecf.dimensions() * sizeof(double);
  };
  std::size_t bytes = 64;
  switch (frame.encoding) {
    case FrameEncoding::kFull:
      for (std::size_t i = 0; i < frame.full->size(); ++i) {
        bytes += exact(*frame.full, i);
      }
      break;
    case FrameEncoding::kDelta:
      bytes += frame.ids.size() * sizeof(std::uint64_t);
      for (std::size_t i = 0; i < frame.changed.size(); ++i) {
        bytes += exact(frame.changed, i);
      }
      break;
  }
  return bytes;
}

// TierStats byte totals must equal the per-cluster walk, frame by frame
// summed, with both encodings present.
void ExpectBytesMatchPerClusterWalk(const SnapshotStore& store,
                                    const char* label) {
  std::size_t approx = 0;
  std::size_t full_equivalent = 0;
  for (std::size_t order = 0; order < store.NumOrders(); ++order) {
    for (std::size_t i = 0; i < store.OrderSize(order); ++i) {
      const EncodedFrame& frame = store.FrameAt(order, i);
      approx += PerClusterBytes(frame);
      full_equivalent +=
          64 + frame.cluster_count * (32 + 3 * frame.dims * sizeof(double));
    }
  }
  const SnapshotTierStats stats = store.TierStats();
  EXPECT_EQ(stats.approx_bytes, approx) << label;
  EXPECT_EQ(stats.full_equivalent_bytes, full_equivalent) << label;
}

TEST(SnapshotTierTest, FrameBytesEqualThePerClusterWalk) {
  SnapshotTiering delta;
  delta.mode = SnapshotStoreMode::kDelta;

  struct Case {
    const char* label;
    SnapshotTiering tiering;
    FrameEncoding expected;
  };
  for (const Case& c : {Case{"full", {}, FrameEncoding::kFull},
                        Case{"delta", delta, FrameEncoding::kDelta}}) {
    SnapshotStore store(2, 3, c.tiering);
    SnapshotStore twin(2, 3, c.tiering);
    FillStores(store, twin, 5, 200);
    // Empty frames (no live clusters) inside the retention as well.
    store.Insert(201, Snapshot{201.0, {}});
    store.Insert(202, Snapshot{202.0, {}});
    std::size_t with_encoding = 0;
    for (std::size_t order = 0; order < store.NumOrders(); ++order) {
      for (std::size_t i = 0; i < store.OrderSize(order); ++i) {
        with_encoding += store.FrameAt(order, i).encoding == c.expected;
      }
    }
    EXPECT_GT(with_encoding, 0u) << c.label;
    ExpectBytesMatchPerClusterWalk(store, c.label);

    // The totals survive a checkpoint round trip unchanged.
    SnapshotStore restored(2, 3, c.tiering);
    ASSERT_TRUE(restored.RestoreState(store.ExportState())) << c.label;
    ExpectBytesMatchPerClusterWalk(restored, c.label);
    EXPECT_EQ(restored.TierStats().approx_bytes,
              store.TierStats().approx_bytes)
        << c.label;
  }
}

// ---- Restore fail-fast -------------------------------------------------

TEST(SnapshotTierTest, RestoreRejectsGeometryMismatchAndLeavesStoreIntact) {
  SnapshotStore source(2, 3);
  SnapshotStore twin(2, 3);
  FillStores(source, twin, 2, 64);
  const SnapshotStoreState state = source.ExportState();

  for (const auto& [alpha, l] : std::vector<std::pair<std::size_t,
                                                      std::size_t>>{
           {2, 2}, {3, 3}, {4, 1}}) {
    SnapshotStore other(alpha, l);
    other.Insert(1, Snapshot{1.0, {}});
    const std::size_t stored_before = other.TotalStored();
    std::string error;
    EXPECT_FALSE(other.RestoreState(state, &error));
    EXPECT_NE(error.find("geometry mismatch"), std::string::npos) << error;
    EXPECT_EQ(other.TotalStored(), stored_before);
    // The rejected store keeps working.
    other.Insert(2, Snapshot{2.0, {}});
    EXPECT_EQ(other.TotalStored(), stored_before + 1);
  }

  // Same geometry restores exactly.
  SnapshotStore same(2, 3);
  ASSERT_TRUE(same.RestoreState(state));
  EXPECT_EQ(FrameStrings(same), FrameStrings(source));
}

TEST(SnapshotTierTest, EngineRestoreRejectsMismatchedPyramidGeometry) {
  const std::size_t dims = 3;
  EngineCore exporter =
      MakeCore(dims, TierOptions(16, 0.0, SnapshotStoreMode::kDelta));
  for (const auto& point : DriftStream(0xabc, dims, 400)) {
    exporter.Process(point);
  }
  const EngineState state = exporter.ExportState();

  EngineConfig mismatched = TierOptions(16, 0.0, SnapshotStoreMode::kDelta);
  mismatched.snapshot.pyramid_l = 3;  // exporter ran l=2
  EngineCore victim = MakeCore(dims, mismatched);
  EXPECT_FALSE(victim.RestoreState(state));
  // Fail fast left the engine untouched and usable.
  EXPECT_EQ(victim.points_processed(), 0u);
  victim.Process(DriftStream(0xdef, dims, 1)[0]);
  EXPECT_EQ(victim.points_processed(), 1u);
}

}  // namespace
}  // namespace umicro::core
