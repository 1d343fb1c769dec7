// Differential tests of kernels::ClosestPairCache: after every step of a
// randomly driven ClusterTable (absorb, create, merge, evict, decay,
// reset), the cached closest pair must be bitwise the pair the rebuild
// kernel ClosestCentroidPair finds and the cache's CheckInvariants must
// hold; integer-lattice tables force rows bounded at exactly the best
// distance to win ties; and a UMicro that checkpoints and restores
// mid-stream (dropping its cache) must end bit-identical to an
// uninterrupted run.

#include "kernels/closest_pair_cache.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/umicro.h"
#include "kernels/cluster_table.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "stream/dataset.h"
#include "synth/workloads.h"
#include "util/random.h"

namespace umicro::kernels {
namespace {

/// A ClusterTable plus its cache, mutated the way core::UMicro mutates
/// them: every table change is followed by the matching cache hook.
class PairCacheDriver {
 public:
  /// With `lattice`, every point lies on the small integer grid and
  /// none repeats on purpose: ties come from the grid alone.
  PairCacheDriver(std::size_t dims, std::size_t target_rows, Backend backend,
                  std::uint64_t seed, bool lattice = false)
      : dims_(dims), target_rows_(target_rows), backend_(backend),
        lattice_(lattice), rng_(seed), table_(dims) {
    table_.set_backend(backend);
  }

  /// One step: one to four random mutations, biased to keep the row
  /// count near the target.
  void Step() {
    const int mutations = 1 + static_cast<int>(rng_.Uniform(0.0, 4.0));
    for (int m = 0; m < mutations; ++m) Mutate();
  }

  /// Asserts the cache agrees with the rebuild kernel, bit for bit.
  void Check() {
    if (table_.rows() < 2) return;
    std::size_t want_a = 0, want_b = 0, got_a = 0, got_b = 0;
    double want_d2 = 0.0, got_d2 = 0.0;
    ClosestCentroidPair(table_, backend_, &want_a, &want_b, &want_d2);
    cache_.Find(table_, backend_, &got_a, &got_b, &got_d2);
    ASSERT_EQ(got_a, want_a) << Where();
    ASSERT_EQ(got_b, want_b) << Where();
    ASSERT_EQ(std::memcmp(&got_d2, &want_d2, sizeof(double)), 0)
        << Where() << " d2 " << got_d2 << " vs " << want_d2;
    ASSERT_EQ(cache_.CheckInvariants(table_, backend_), "") << Where();
    // More than the winning pair's two rows at the minimum distance
    // means another pair ties with it.
    nn_.resize(table_.rows());
    nn_d2_.resize(table_.rows());
    ClosestCentroidNeighbors(table_, backend_, nn_.data(), nn_d2_.data());
    if (std::count(nn_d2_.begin(), nn_d2_.end(), want_d2) > 2) ++ties_seen_;
  }

  /// Checks at which the closest pair tied with another pair.
  std::size_t ties_seen() const { return ties_seen_; }

 private:
  void Mutate() {
    const std::size_t q = table_.rows();
    const double roll = rng_.Uniform(0.0, 1.0);
    if (q < 2 || (q < target_rows_ && roll < 0.45)) {
      Create();
    } else if (q > target_rows_ && roll < 0.5) {
      Merge(/*closest=*/rng_.Uniform(0.0, 1.0) < 0.7);
    } else if (roll < 0.6) {
      Absorb();
    } else if (roll < 0.75) {
      Create();
    } else if (roll < 0.87) {
      Merge(/*closest=*/rng_.Uniform(0.0, 1.0) < 0.5);
    } else if (roll < 0.97) {
      Evict();
    } else if (roll < 0.995) {
      table_.ScaleAll(rng_.Uniform(0.5, 1.0));
      cache_.Invalidate();
    } else {
      table_.Reset(dims_);
      cache_.Invalidate();
    }
  }

  /// A point that is, at random, an exact repeat of an earlier one (so
  /// duplicate centroids and zero-distance ties land in any tile), on a
  /// small integer grid (many bit-equal nonzero distances), or generic.
  std::vector<double> NextPoint() {
    const double kind = lattice_ ? 0.5 : rng_.Uniform(0.0, 1.0);
    if (kind < 0.5 && !history_.empty()) {
      const auto k = static_cast<std::size_t>(
          rng_.Uniform(0.0, static_cast<double>(history_.size())));
      return history_[std::min(k, history_.size() - 1)];
    }
    std::vector<double> point(dims_);
    for (double& v : point) {
      v = kind < 0.8 ? std::floor(rng_.Uniform(-2.0, 3.0))
                      : rng_.Uniform(-10.0, 10.0);
    }
    if (history_.size() < 8) history_.push_back(point);
    return point;
  }

  std::size_t RandomRow() {
    const auto i = static_cast<std::size_t>(
        rng_.Uniform(0.0, static_cast<double>(table_.rows())));
    return std::min(i, table_.rows() - 1);
  }

  void Create() {
    const std::vector<double> point = NextPoint();
    table_.PushPointRow(point.data(), nullptr, 1.0);
    cache_.NoteAppend();
  }

  void Absorb() {
    if (table_.rows() == 0) return;
    const std::size_t i = RandomRow();
    const std::vector<double> point = NextPoint();
    table_.AddPoint(i, point.data(), nullptr, 1.0);
    cache_.NoteChanged(i);
  }

  void Merge(bool closest) {
    if (table_.rows() < 2) return;
    std::size_t a = 0, b = 0;
    if (closest) {
      double d2 = 0.0;
      ClosestCentroidPair(table_, backend_, &a, &b, &d2);
    } else {
      a = RandomRow();
      do {
        b = RandomRow();
      } while (b == a);
      if (a > b) std::swap(a, b);
    }
    table_.MergeRows(a, b);
    cache_.NoteChanged(a);
    table_.RemoveRow(b);
    cache_.NoteRemove(b);
  }

  void Evict() {
    if (table_.rows() == 0) return;
    const std::size_t i = RandomRow();
    table_.RemoveRow(i);
    cache_.NoteRemove(i);
  }

  std::string Where() const {
    return std::string("backend=") + BackendName(backend_) +
           " d=" + std::to_string(dims_) +
           " q=" + std::to_string(table_.rows());
  }

  std::size_t dims_;
  std::size_t target_rows_;
  Backend backend_;
  bool lattice_;
  util::Rng rng_;
  ClusterTable table_;
  ClosestPairCache cache_;
  std::vector<std::vector<double>> history_;
  std::vector<std::uint32_t> nn_;
  std::vector<double> nn_d2_;
  std::size_t ties_seen_ = 0;
};

TEST(ClosestPairParity, CacheMatchesRebuildAfterEveryStep) {
  std::uint64_t seed = 1;
  for (const Backend backend : SupportedBackends()) {
    for (const std::size_t dims : {1u, 7u, 20u, 64u}) {
      for (const std::size_t q : {2u, 17u, 100u}) {
        PairCacheDriver driver(dims, q, backend, seed++);
        const int steps = q >= 100 ? 250 : 400;
        for (int step = 0; step < steps; ++step) {
          driver.Step();
          driver.Check();
          if (HasFatalFailure()) return;
        }
        // The duplicate and grid points must actually have produced
        // exact ties (two rows admit only one pair).
        if (q > 2) {
          EXPECT_GT(driver.ties_seen(), 0u)
              << "backend=" << BackendName(backend) << " d=" << dims
              << " q=" << q;
        }
      }
    }
  }
}

TEST(ClosestPairParity, FirstFindBuildsAndHooksBeforeItAreFree) {
  // Hooks before the first Find touch nothing (the cache is not built),
  // and the first Find still returns the kernel's pair.
  ClusterTable table(3);
  ClosestPairCache cache;
  const double rows[4][3] = {{0, 0, 0}, {5, 5, 5}, {0, 0, 1}, {9, 9, 9}};
  for (const auto& row : rows) {
    table.PushPointRow(row, nullptr, 1.0);
    cache.NoteAppend();
  }
  cache.NoteChanged(1);
  cache.NoteRemove(3);
  table.RemoveRow(3);
  std::size_t a = 0, b = 0;
  double d2 = 0.0;
  cache.Find(table, table.backend(), &a, &b, &d2);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(d2, 1.0);
}

TEST(ClosestPairParity, LatticeTiesMatchRebuildAfterEveryStep) {
  // Integer-grid centroids only: most distances tie with many others,
  // so rows whose neighbour was removed or moved away are bounded at
  // exactly the closest distance again and again.
  std::uint64_t seed = 7001;
  for (const Backend backend : SupportedBackends()) {
    for (const std::size_t dims : {1u, 2u, 3u}) {
      for (const std::size_t q : {5u, 17u, 40u}) {
        PairCacheDriver driver(dims, q, backend, seed++, /*lattice=*/true);
        for (int step = 0; step < 400; ++step) {
          driver.Step();
          driver.Check();
          if (HasFatalFailure()) return;
        }
        EXPECT_GT(driver.ties_seen(), 0u)
            << "backend=" << BackendName(backend) << " d=" << dims
            << " q=" << q;
      }
    }
  }
}

/// A 1-d table of integer centroids with its cache, for hand-built
/// sequences of hooks.
class LatticeTable {
 public:
  LatticeTable(std::initializer_list<double> positions, Backend backend)
      : backend_(backend), table_(1) {
    table_.set_backend(backend);
    for (const double x : positions) Append(x);
  }

  void Append(double x) {
    table_.PushPointRow(&x, nullptr, 1.0);
    cache_.NoteAppend();
  }

  void Remove(std::size_t i) {
    table_.RemoveRow(i);
    cache_.NoteRemove(i);
  }

  /// Asserts the cache's pair is the rebuild kernel's and `want`, and
  /// that the cache's invariants hold.
  void ExpectPair(std::size_t want_a, std::size_t want_b, double want_d2) {
    std::size_t a = 0, b = 0, ref_a = 0, ref_b = 0;
    double d2 = 0.0, ref_d2 = 0.0;
    ClosestCentroidPair(table_, backend_, &ref_a, &ref_b, &ref_d2);
    ASSERT_EQ(ref_a, want_a);
    ASSERT_EQ(ref_b, want_b);
    ASSERT_EQ(ref_d2, want_d2);
    cache_.Find(table_, backend_, &a, &b, &d2);
    EXPECT_EQ(a, want_a) << BackendName(backend_);
    EXPECT_EQ(b, want_b) << BackendName(backend_);
    EXPECT_EQ(d2, want_d2) << BackendName(backend_);
    EXPECT_EQ(cache_.CheckInvariants(table_, backend_), "")
        << BackendName(backend_);
  }

 private:
  Backend backend_;
  ClusterTable table_;
  ClosestPairCache cache_;
};

// Rows 2 (at 0) and 3 (at 1) are each other's second neighbour at
// distance 1: 2's first is row 1 (at -1), 3's first is row 0 (at 2).
// Removing rows 0 and 1 bounds both at exactly 1 while the clean pair
// of rows 4 and 5 (at 10 and 11) also sits at 1. The bounded rows hold
// the lexicographically smaller pair, so both must be rescanned.
TEST(ClosestPairParity, BoundedRowsAtTheBestDistanceWinTheTie) {
  for (const Backend backend : SupportedBackends()) {
    LatticeTable t({2, -1, 0, 1, 10, 11}, backend);
    t.ExpectPair(0, 3, 1.0);
    t.Remove(0);
    t.Remove(0);
    t.ExpectPair(0, 1, 1.0);
  }
}

// As above, but then rows at -1 and 2 come back (appended, so higher
// indices): each is offered to one bounded row at exactly its bound.
// An offer equal to the bound proves nothing -- the unoffered row at
// the same distance has the smaller index -- so neither bounded row
// may settle on its offer.
TEST(ClosestPairParity, OfferAtTheBoundDoesNotSettleABoundedRow) {
  for (const Backend backend : SupportedBackends()) {
    LatticeTable t({2, -1, 0, 1, 10, 11}, backend);
    t.ExpectPair(0, 3, 1.0);
    t.Remove(0);
    t.Remove(0);
    t.Append(-1);
    t.Append(2);
    t.ExpectPair(0, 1, 1.0);
  }
}

// ---- UMicro: checkpoint round-trips mid-stream ------------------------

void ExpectSameState(const core::UMicro& expected, const core::UMicro& actual) {
  const auto expected_clusters = expected.clusters();
  const auto actual_clusters = actual.clusters();
  ASSERT_EQ(actual_clusters.size(), expected_clusters.size());
  EXPECT_EQ(actual.clusters_merged(), expected.clusters_merged());
  EXPECT_EQ(actual.clusters_evicted(), expected.clusters_evicted());
  EXPECT_EQ(actual.clusters_created(), expected.clusters_created());
  for (std::size_t i = 0; i < expected_clusters.size(); ++i) {
    const auto& a = expected_clusters[i];
    const auto& b = actual_clusters[i];
    ASSERT_EQ(a.id, b.id) << "cluster " << i;
    EXPECT_EQ(a.creation_time, b.creation_time);
    EXPECT_EQ(a.ecf.weight(), b.ecf.weight());
    EXPECT_EQ(a.ecf.cf1(), b.ecf.cf1());
    EXPECT_EQ(a.ecf.cf2(), b.ecf.cf2());
    EXPECT_EQ(a.ecf.ef2(), b.ecf.ef2());
  }
}

TEST(ClosestPairParity, UMicroRestoreMidStreamIsBitIdentical) {
  const stream::Dataset dataset = synth::MakeSynDriftWorkload(6000, 0.5, 99);
  for (const double lambda : {0.0, 0.0005}) {
    core::UMicroOptions options;
    options.num_micro_clusters = 40;
    options.eviction_horizon = 1e18;  // always merge: maximal cache work
    options.decay_lambda = lambda;

    core::UMicro uninterrupted(dataset.dimensions(), options);
    for (const auto& point : dataset.points()) uninterrupted.Process(point);
    ASSERT_GT(uninterrupted.clusters_merged(), 300u);

    // Hand the stream to a fresh instance every 1500 points (its cache
    // starts empty) and, in between, round-trip the running instance's
    // own state (which drops its cache mid-stream).
    auto resumed = std::make_unique<core::UMicro>(dataset.dimensions(),
                                                  options);
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      resumed->Process(dataset.points()[i]);
      if (i % 1500 == 1499) {
        auto next = std::make_unique<core::UMicro>(dataset.dimensions(),
                                                   options);
        next->RestoreState(resumed->ExportState());
        resumed = std::move(next);
      } else if (i % 1500 == 700) {
        resumed->RestoreState(resumed->ExportState());
      }
    }
    ExpectSameState(uninterrupted, *resumed);
  }
}

}  // namespace
}  // namespace umicro::kernels
