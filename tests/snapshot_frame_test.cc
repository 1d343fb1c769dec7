// Tests for core::Snapshot as a flat frame: the record layout, the
// edge-form round trip, bitwise delta encoding, and delta/full store
// parity at the record level.

#include "core/snapshot.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace umicro::core {
namespace {

double Bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Values whose bits an arithmetic or comparison path would lose: signed
// zero, quiet and signalling NaNs with payloads, denormals, infinities.
const std::vector<double>& Awkward() {
  static const std::vector<double> values = {
      -0.0,
      0.0,
      Bits(0x7ff8000000000123ull),  // quiet NaN, payload 0x123
      Bits(0xfff80000deadbeefull),  // negative quiet NaN with payload
      Bits(0x7ff0000000000001ull),  // signalling NaN
      std::numeric_limits<double>::denorm_min(),
      -4.9e-320,
      std::numeric_limits<double>::infinity(),
      1.0 / 3.0,
  };
  return values;
}

MicroClusterState AwkwardState(std::uint64_t id, std::size_t dims,
                               std::size_t salt) {
  const std::vector<double>& awkward = Awkward();
  auto pick = [&](std::size_t k) {
    return awkward[(k * 7 + salt) % awkward.size()];
  };
  std::vector<double> cf1(dims), cf2(dims), ef2(dims);
  for (std::size_t j = 0; j < dims; ++j) {
    cf1[j] = pick(3 * j);
    cf2[j] = pick(3 * j + 1);
    ef2[j] = pick(3 * j + 2);
  }
  // ECF weights are never negative or NaN; -0.0 and denormals are legal.
  const double weight = salt % 2 == 0 ? -0.0 : 4.9e-324;
  MicroClusterState state;
  state.id = id;
  state.creation_time = pick(salt + 1);
  state.ecf = ErrorClusterFeature::FromRaw(std::move(cf1), std::move(cf2),
                                           std::move(ef2), weight,
                                           pick(salt + 2));
  return state;
}

void ExpectBitIdentical(const MicroClusterState& a,
                        const MicroClusterState& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_TRUE(SameBits(a.creation_time, b.creation_time));
  EXPECT_TRUE(SameBits(a.ecf.weight(), b.ecf.weight()));
  EXPECT_TRUE(SameBits(a.ecf.last_update_time(), b.ecf.last_update_time()));
  EXPECT_TRUE(SameBits(a.ecf.cf1(), b.ecf.cf1()));
  EXPECT_TRUE(SameBits(a.ecf.cf2(), b.ecf.cf2()));
  EXPECT_TRUE(SameBits(a.ecf.ef2(), b.ecf.ef2()));
}

/// Two frames hold the same bytes: time, shape and every record.
void ExpectSameRecords(const Snapshot& a, const Snapshot& b) {
  EXPECT_TRUE(SameBits(a.time, b.time));
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.dims(), b.dims());
  const std::size_t bytes = Snapshot::RecordSize(a.dims()) * sizeof(double);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(a.record(i), b.record(i), bytes), 0)
        << "record " << i;
  }
}

TEST(SnapshotFrameTest, EmptyFrame) {
  const Snapshot frame = Snapshot::FromStates(5.0, {});
  EXPECT_EQ(frame.time, 5.0);
  EXPECT_EQ(frame.size(), 0u);
  EXPECT_TRUE(frame.empty());
  EXPECT_EQ(frame.dims(), 0u);
  // An empty frame reports dims 0 whatever it was built for.
  EXPECT_EQ(Snapshot(1.0, 7, 4).dims(), 0u);
}

TEST(SnapshotFrameTest, StatesRoundTripBitExact) {
  for (const std::size_t dims : {std::size_t{1}, std::size_t{64}}) {
    std::vector<MicroClusterState> states;
    // Ids whose bit patterns are NaNs or negative zero as doubles must
    // survive the record's id slot as well.
    const std::vector<std::uint64_t> ids = {
        0, 1, 0x7ff0000000000001ull, 0x8000000000000000ull,
        0xffffffffffffffffull, 0x7ff8000000000123ull};
    for (std::size_t k = 0; k < ids.size(); ++k) {
      states.push_back(AwkwardState(ids[k], dims, k));
    }
    const Snapshot frame = Snapshot::FromStates(Bits(0x8000000000000000ull),
                                                states);
    EXPECT_TRUE(SameBits(frame.time, -0.0));
    ASSERT_EQ(frame.size(), states.size());
    ASSERT_EQ(frame.dims(), dims);
    for (std::size_t i = 0; i < states.size(); ++i) {
      ExpectBitIdentical(frame.State(i), states[i]);
      EXPECT_EQ(frame.id(i), states[i].id);
      EXPECT_TRUE(SameBits(frame.weight(i), states[i].ecf.weight()));
    }
    // A copy of the frame, and a frame rebuilt record by record, hold
    // the same bytes.
    const Snapshot copy = frame;
    ExpectSameRecords(copy, frame);
    Snapshot rebuilt(frame.time, dims, frame.size());
    for (std::size_t i = 0; i < frame.size(); ++i) {
      rebuilt.AppendRecord(frame.record(i));
    }
    ExpectSameRecords(rebuilt, frame);
  }
}

TEST(SnapshotFrameTest, RecordLayout) {
  const std::size_t dims = 3;
  const MicroClusterState state = AwkwardState(0x1234, dims, 3);
  const Snapshot frame = Snapshot::FromStates(1.0, {&state, 1});
  ASSERT_EQ(Snapshot::RecordSize(dims), 4 + 3 * dims);
  const double* record = frame.record(0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(record[0]), 0x1234u);
  EXPECT_TRUE(SameBits(record[1], state.creation_time));
  EXPECT_TRUE(SameBits(record[2], state.ecf.weight()));
  EXPECT_TRUE(SameBits(record[3], state.ecf.last_update_time()));
  for (std::size_t j = 0; j < dims; ++j) {
    EXPECT_TRUE(SameBits(record[4 + j], state.ecf.cf1()[j]));
    EXPECT_TRUE(SameBits(record[4 + dims + j], state.ecf.cf2()[j]));
    EXPECT_TRUE(SameBits(record[4 + 2 * dims + j], state.ecf.ef2()[j]));
  }
  EXPECT_EQ(frame.cf1(0), record + 4);
  EXPECT_EQ(frame.cf2(0), record + 4 + dims);
  EXPECT_EQ(frame.ef2(0), record + 4 + 2 * dims);
}

TEST(SnapshotFrameTest, MixedDimensionalityIsRejected) {
  std::vector<MicroClusterState> states;
  states.push_back({1, 0.0, ErrorClusterFeature(2)});
  states.push_back({2, 0.0, ErrorClusterFeature(3)});
  EXPECT_DEATH(Snapshot::FromStates(0.0, states),
               "mixed dimensionality inside one snapshot frame");
}

/// One cluster with cf1 = {value}, at tick-derived time.
Snapshot OneCluster(double time, double value) {
  const std::vector<MicroClusterState> states = {
      {9, 0.0, ErrorClusterFeature::FromRaw({value}, {1.0}, {0.5}, 2.0,
                                            0.0)}};
  return Snapshot::FromStates(time, states);
}

TEST(SnapshotFrameTest, EncodeDeltaCountsSignedZeroAsChange) {
  SnapshotTiering tiering;
  tiering.mode = SnapshotStoreMode::kDelta;
  for (const double older_value : {0.0, -0.0, Bits(0x7ff8000000000001ull)}) {
    for (const double newer_value : {0.0, -0.0, Bits(0x7ff8000000000002ull)}) {
      SnapshotStore store(2, 3, tiering);
      // Ticks 1 and 3 share the order-0 ring: inserting 3 re-encodes 1
      // against it.
      store.Insert(1, OneCluster(1.0, older_value));
      store.Insert(2, OneCluster(2.0, older_value));
      store.Insert(3, OneCluster(3.0, newer_value));
      const EncodedFrame& warm = store.FrameAt(0, 0);
      ASSERT_EQ(warm.encoding, FrameEncoding::kDelta);
      const bool same = SameBits(older_value, newer_value);
      EXPECT_EQ(warm.changed.size(), same ? 0u : 1u)
          << older_value << " against " << newer_value;
      const auto materialized = store.MaterializeFrame(0, 0);
      ASSERT_TRUE(materialized.has_value());
      ExpectSameRecords(*materialized, OneCluster(1.0, older_value));
    }
  }
}

/// A drifting cluster population: each tick some clusters keep their
/// bits, some change (including to awkward values), some are removed
/// and some are born.
class FrameStream {
 public:
  FrameStream(std::size_t dims, std::uint64_t seed) : dims_(dims), rng_(seed) {
    for (std::size_t k = 0; k < 12; ++k) Birth();
  }

  Snapshot Next(double time) {
    for (auto& state : live_) {
      if (rng_.NextBounded(3) != 0) continue;  // unchanged bits
      state = rng_.NextBounded(4) == 0
                  ? AwkwardState(state.id, dims_, rng_.NextBounded(9))
                  : Fresh(state.id);
    }
    if (!live_.empty() && rng_.NextBounded(4) == 0) {
      live_.erase(live_.begin() +
                  static_cast<std::ptrdiff_t>(rng_.NextBounded(live_.size())));
    }
    if (rng_.NextBounded(3) == 0) Birth();
    return Snapshot::FromStates(time, live_);
  }

 private:
  MicroClusterState Fresh(std::uint64_t id) {
    std::vector<double> cf1(dims_), cf2(dims_), ef2(dims_);
    for (std::size_t j = 0; j < dims_; ++j) {
      cf1[j] = rng_.Uniform(-10.0, 10.0);
      cf2[j] = rng_.Uniform(0.0, 100.0);
      ef2[j] = rng_.Uniform(0.0, 1.0);
    }
    return {id, rng_.Uniform(0.0, 5.0),
            ErrorClusterFeature::FromRaw(std::move(cf1), std::move(cf2),
                                         std::move(ef2),
                                         rng_.Uniform(1.0, 50.0),
                                         rng_.Uniform(0.0, 5.0))};
  }

  void Birth() { live_.push_back(Fresh(next_id_++)); }

  std::size_t dims_;
  util::Rng rng_;
  std::uint64_t next_id_ = 1;
  std::vector<MicroClusterState> live_;
};

TEST(SnapshotFrameTest, DeltaAndFullStoresMaterializeIdenticalRecords) {
  for (const std::size_t dims : {std::size_t{1}, std::size_t{5}}) {
    SnapshotTiering delta;
    delta.mode = SnapshotStoreMode::kDelta;
    SnapshotStore full_store(2, 3);
    SnapshotStore delta_store(2, 3, delta);
    FrameStream stream(dims, 0xf1a7 + dims);
    for (std::uint64_t tick = 1; tick <= 300; ++tick) {
      Snapshot frame = stream.Next(static_cast<double>(tick));
      full_store.Insert(tick, frame);
      delta_store.Insert(tick, std::move(frame));
    }
    EXPECT_GT(delta_store.TierStats().delta_frames, 0u);
    ASSERT_EQ(full_store.NumOrders(), delta_store.NumOrders());
    for (std::size_t order = 0; order < full_store.NumOrders(); ++order) {
      ASSERT_EQ(full_store.OrderSize(order), delta_store.OrderSize(order));
      for (std::size_t i = 0; i < full_store.OrderSize(order); ++i) {
        const auto want = full_store.MaterializeFrame(order, i);
        const auto got = delta_store.MaterializeFrame(order, i);
        ASSERT_TRUE(want.has_value());
        ASSERT_TRUE(got.has_value());
        ExpectSameRecords(*got, *want);
      }
    }
  }
}

}  // namespace
}  // namespace umicro::core
