// Tests for snapshot serialization.

#include "io/snapshot_io.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/state_io.h"
#include "stream/point.h"
#include "util/random.h"

namespace umicro::io {
namespace {

core::Snapshot MakeSnapshot(std::uint64_t seed, std::size_t clusters,
                            std::size_t dims) {
  util::Rng rng(seed);
  const double time = rng.Uniform(0.0, 1000.0);
  std::vector<core::MicroClusterState> states;
  for (std::size_t c = 0; c < clusters; ++c) {
    core::MicroClusterState state;
    state.id = rng.NextUint64();
    state.creation_time = rng.Uniform(0.0, time);
    core::ErrorClusterFeature ecf(dims);
    const int points = 1 + static_cast<int>(rng.NextBounded(10));
    for (int p = 0; p < points; ++p) {
      std::vector<double> values(dims);
      std::vector<double> errors(dims);
      for (std::size_t j = 0; j < dims; ++j) {
        values[j] = rng.Uniform(-100.0, 100.0);
        errors[j] = rng.Uniform(0.0, 5.0);
      }
      ecf.AddPoint(stream::UncertainPoint(values, errors,
                                          rng.Uniform(0.0, time)));
    }
    state.ecf = std::move(ecf);
    states.push_back(std::move(state));
  }
  return core::Snapshot::FromStates(time, states);
}

TEST(SnapshotIoTest, RoundTripExact) {
  const core::Snapshot original = MakeSnapshot(1, 5, 3);
  const std::string text = SnapshotToString(original);
  const auto parsed = ParseSnapshot(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->time, original.time);
  ASSERT_EQ(parsed->size(), original.size());
  for (std::size_t c = 0; c < original.size(); ++c) {
    const core::MicroClusterState a = original.State(c);
    const core::MicroClusterState b = parsed->State(c);
    EXPECT_EQ(a.id, b.id);
    EXPECT_DOUBLE_EQ(a.creation_time, b.creation_time);
    EXPECT_DOUBLE_EQ(a.ecf.weight(), b.ecf.weight());
    EXPECT_DOUBLE_EQ(a.ecf.last_update_time(), b.ecf.last_update_time());
    EXPECT_EQ(a.ecf.cf1(), b.ecf.cf1());
    EXPECT_EQ(a.ecf.cf2(), b.ecf.cf2());
    EXPECT_EQ(a.ecf.ef2(), b.ecf.ef2());
  }
}

TEST(SnapshotIoTest, EmptySnapshotRoundTrips) {
  core::Snapshot empty;
  empty.time = 42.0;
  const auto parsed = ParseSnapshot(SnapshotToString(empty));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->time, 42.0);
  EXPECT_TRUE(parsed->empty());
}

TEST(SnapshotIoTest, RejectsGarbage) {
  EXPECT_FALSE(ParseSnapshot("").has_value());
  EXPECT_FALSE(ParseSnapshot("not a snapshot").has_value());
  EXPECT_FALSE(ParseSnapshot("usnap 99\ntime 0\ndims 1 clusters 0\n")
                   .has_value());
}

// A frame is one block sized by its header, so a header the text cannot
// back is refused before anything is allocated (these used to die with
// std::bad_alloc).
TEST(SnapshotIoTest, RejectsOversizedHeader) {
  EXPECT_FALSE(ParseSnapshot("usnap 1\ntime 0\ndims 1 clusters "
                             "100000000000000\n1 0 1 0 0 0 0\n")
                   .has_value());
  EXPECT_FALSE(ParseSnapshot("usnap 1\ntime 0\ndims 100000000000 clusters "
                             "1\n1 0 1 0 0 0 0\n")
                   .has_value());
  // Within the caps, but more records than the text could hold.
  EXPECT_FALSE(ParseSnapshot("usnap 1\ntime 0\ndims 65536 clusters "
                             "1048576\n1 0 1 0\n")
                   .has_value());
}

TEST(SnapshotIoTest, RejectsNegativeWeight) {
  EXPECT_FALSE(
      ParseSnapshot("usnap 1\ntime 0\ndims 1 clusters 1\n1 0 -1 0 0 0 0\n")
          .has_value());
}

TEST(SnapshotIoTest, RejectsTruncatedClusterData) {
  const core::Snapshot original = MakeSnapshot(2, 3, 2);
  std::string text = SnapshotToString(original);
  text.resize(text.size() / 2);
  EXPECT_FALSE(ParseSnapshot(text).has_value());
}

TEST(SnapshotIoTest, FileRoundTrip) {
  const core::Snapshot original = MakeSnapshot(3, 4, 2);
  const std::string path = testing::TempDir() + "/snapshot_io_test.usnap";
  ASSERT_TRUE(WriteSnapshotFile(original, path));
  const auto loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), original.size());
  std::remove(path.c_str());
}

TEST(SnapshotIoTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(ReadSnapshotFile("/nonexistent/x.usnap").has_value());
}

}  // namespace
}  // namespace umicro::io
