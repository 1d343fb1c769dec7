// Exactness of the sharded merge (parallel::MergeShardClusterSets)
// against the full-sort reference it replaced: the pair scores come from
// the tiered pair kernel, the union order is selected lazily and the
// cluster sets are record frames, yet every merged view must be byte for
// byte the reference's (over MicroCluster vectors), with the same
// reconciliation count.

#include "parallel/shard_merge.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster_feature.h"
#include "core/microcluster.h"
#include "core/snapshot.h"
#include "stream/point.h"
#include "util/random.h"

namespace umicro::parallel {
namespace {

// ---- Reference: the full-sort merge, verbatim -----------------------
//
// One switch is added: `tie_break` extends the sort key with (a, b).
// Without it std::sort leaves pairs tied in (similarity, d2) in an
// unspecified order, so where such a tie straddles the budget cut the
// reference itself has no defined answer; with it the reference gives
// the one answer the production merge's total order defines.

/// Path-compressing union-find root lookup.
std::size_t FindRoot(std::vector<std::size_t>& parent, std::size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];
    i = parent[i];
  }
  return i;
}

std::vector<core::MicroCluster> ReferenceMergeShardClusterSets(
    std::vector<std::vector<core::MicroCluster>> shard_sets,
    const ShardMergeOptions& options, std::size_t* reconciliations,
    bool tie_break = false) {
  if (reconciliations != nullptr) *reconciliations = 0;
  std::vector<core::MicroCluster> merged;
  for (std::size_t i = 0; i < shard_sets.size(); ++i) {
    for (core::MicroCluster& cluster : shard_sets[i]) {
      merged.push_back(std::move(cluster));
      merged.back().id =
          (static_cast<std::uint64_t>(i) << kShardIdShift) | merged.back().id;
    }
  }

  const std::size_t q = merged.size();
  if (q <= options.global_budget) {
    return merged;
  }

  core::ErrorClusterFeature aggregate(options.dimensions);
  for (const auto& cluster : merged) aggregate.Merge(cluster.ecf);
  std::vector<double> inv_scaled(options.dimensions, 0.0);
  for (std::size_t j = 0; j < options.dimensions; ++j) {
    const double scaled =
        options.dimension_threshold * aggregate.VarianceAt(j);
    inv_scaled[j] = scaled > 0.0 ? 1.0 / scaled : 0.0;
  }

  struct CandidatePair {
    double similarity;
    double dist2;
    std::size_t a;
    std::size_t b;
  };
  std::vector<CandidatePair> pairs;
  pairs.reserve(q * (q - 1) / 2);
  for (std::size_t a = 0; a + 1 < q; ++a) {
    for (std::size_t b = a + 1; b < q; ++b) {
      double d2 = 0.0;
      const double sim =
          ClusterSimilarity(merged[a].ecf, merged[b].ecf, inv_scaled, &d2);
      pairs.push_back({sim, d2, a, b});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [tie_break](const CandidatePair& x, const CandidatePair& y) {
              if (x.similarity != y.similarity)
                return x.similarity > y.similarity;
              if (tie_break && x.dist2 == y.dist2) {
                return x.a != y.a ? x.a < y.a : x.b < y.b;
              }
              return x.dist2 < y.dist2;
            });

  std::vector<std::size_t> parent(q);
  std::iota(parent.begin(), parent.end(), 0);
  std::size_t components = q;
  std::size_t unions = 0;
  for (const CandidatePair& pair : pairs) {
    if (components <= options.global_budget) break;
    const std::size_t ra = FindRoot(parent, pair.a);
    const std::size_t rb = FindRoot(parent, pair.b);
    if (ra == rb) continue;
    parent[rb] = ra;
    --components;
    ++unions;
  }
  if (reconciliations != nullptr) *reconciliations = unions;

  std::vector<core::MicroCluster> reconciled;
  reconciled.reserve(components);
  std::vector<std::size_t> root_slot(q, q);
  for (std::size_t i = 0; i < q; ++i) {
    const std::size_t root = FindRoot(parent, i);
    if (root_slot[root] == q) {
      root_slot[root] = reconciled.size();
      reconciled.push_back(std::move(merged[i]));
      continue;
    }
    core::MicroCluster& into = reconciled[root_slot[root]];
    core::MicroCluster& from = merged[i];
    if (from.ecf.weight() > into.ecf.weight()) {
      std::swap(into.id, from.id);
    }
    into.creation_time = std::min(into.creation_time, from.creation_time);
    into.ecf.Merge(from.ecf);
    for (const auto& [label, weight] : from.labels) {
      into.labels[label] += weight;
    }
  }
  return reconciled;
}

// ---- Fixtures ---------------------------------------------------------

/// A shard's clusters: each absorbs 1-6 points drawn around one of a few
/// shared centres, so different shards report near-duplicate clusters.
/// Dimension 0 is dead (every value and error 0, so its variance is 0
/// and it never votes) when `dead_dimension` is set and dims > 1.
std::vector<core::MicroCluster> RandomShardClusters(
    util::Rng& rng, std::size_t dims, std::size_t count,
    bool dead_dimension) {
  const std::size_t kCentres = 5;
  std::vector<core::MicroCluster> clusters;
  for (std::size_t i = 0; i < count; ++i) {
    const double centre =
        10.0 * static_cast<double>(static_cast<std::size_t>(
                   rng.Uniform(0.0, static_cast<double>(kCentres))));
    const int members = 1 + static_cast<int>(rng.Uniform(0.0, 6.0));
    core::MicroCluster cluster;
    cluster.id = i + 1;
    cluster.ecf = core::ErrorClusterFeature(dims);
    for (int m = 0; m < members; ++m) {
      stream::UncertainPoint point;
      point.values.resize(dims);
      point.errors.resize(dims);
      for (std::size_t j = 0; j < dims; ++j) {
        const bool dead = dead_dimension && dims > 1 && j == 0;
        point.values[j] = dead ? 0.0 : centre + rng.Gaussian(0.0, 2.0);
        point.errors[j] = dead ? 0.0 : rng.Uniform(0.0, 1.5);
      }
      point.timestamp = rng.Uniform(0.0, 1000.0);
      point.label = static_cast<int>(rng.Uniform(0.0, 3.0));
      if (m == 0) {
        cluster.creation_time = point.timestamp;
      }
      cluster.ecf.AddPoint(point, 1.0 + std::floor(rng.Uniform(0.0, 3.0)));
      cluster.labels[point.label] += 1.0;
    }
    clusters.push_back(std::move(cluster));
  }
  return clusters;
}

/// Copies a few clusters of shard 0 into later shards under fresh local
/// ids: the same cluster reported by several shards.
void DuplicateAcrossShards(
    util::Rng& rng, std::vector<std::vector<core::MicroCluster>>* shards) {
  const std::size_t copies = 1 + (*shards)[0].size() / 4;
  for (std::size_t c = 0; c < copies; ++c) {
    const std::size_t from = static_cast<std::size_t>(
        rng.Uniform(0.0, static_cast<double>((*shards)[0].size())));
    for (std::size_t s = 1; s < shards->size(); ++s) {
      core::MicroCluster copy = (*shards)[0][from];
      copy.id = 1000 + c;
      (*shards)[s].push_back(std::move(copy));
    }
  }
}

/// `clusters` in record form.
core::LabeledFrame ToFrame(const std::vector<core::MicroCluster>& clusters,
                           std::size_t dims) {
  core::LabeledFrame frame{core::Snapshot(0.0, dims, clusters.size()), {}};
  for (const core::MicroCluster& cluster : clusters) {
    frame.frame.Append(cluster.id, cluster.creation_time,
                       cluster.ecf.weight(), cluster.ecf.last_update_time(),
                       cluster.ecf.cf1().data(), cluster.ecf.cf2().data(),
                       cluster.ecf.ef2().data());
    frame.labels.push_back(cluster.labels);
  }
  return frame;
}

/// MergeShardClusterSets over the record forms of `shards`.
core::LabeledFrame Merge(
    const std::vector<std::vector<core::MicroCluster>>& shards,
    const ShardMergeOptions& options, std::size_t* reconciliations) {
  std::vector<core::LabeledFrame> frames;
  for (const auto& shard : shards) {
    frames.push_back(ToFrame(shard, options.dimensions));
  }
  std::vector<const core::LabeledFrame*> shard_sets;
  for (const auto& frame : frames) shard_sets.push_back(&frame);
  return MergeShardClusterSets(shard_sets, options, reconciliations);
}

/// The raw bytes of every field of every cluster, in order: two merged
/// views are bit-identical exactly when these are equal.
std::string Bytes(const std::vector<core::MicroCluster>& clusters) {
  std::string out;
  const auto put = [&out](const void* data, std::size_t size) {
    out.append(static_cast<const char*>(data), size);
  };
  for (const core::MicroCluster& cluster : clusters) {
    const double weight = cluster.ecf.weight();
    const double last_update = cluster.ecf.last_update_time();
    put(&cluster.id, sizeof cluster.id);
    put(&cluster.creation_time, sizeof cluster.creation_time);
    put(&weight, sizeof weight);
    put(&last_update, sizeof last_update);
    for (const auto* stat :
         {&cluster.ecf.cf1(), &cluster.ecf.cf2(), &cluster.ecf.ef2()}) {
      put(stat->data(), stat->size() * sizeof(double));
    }
    for (const auto& [label, mass] : cluster.labels) {
      put(&label, sizeof label);
      put(&mass, sizeof mass);
    }
  }
  return out;
}

/// The same bytes for a record-form view: each record (id, creation
/// time, weight, last update, cf1, cf2, ef2 -- the field order above),
/// then its labels.
std::string Bytes(const core::LabeledFrame& clusters) {
  std::string out;
  const std::size_t record_bytes =
      core::Snapshot::RecordSize(clusters.frame.dims()) * sizeof(double);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    out.append(reinterpret_cast<const char*>(clusters.frame.record(i)),
               record_bytes);
    for (const auto& [label, mass] : clusters.labels[i]) {
      out.append(reinterpret_cast<const char*>(&label), sizeof label);
      out.append(reinterpret_cast<const char*>(&mass), sizeof mass);
    }
  }
  return out;
}

/// Merges `shards` at every budget from one under the total down to 1
/// and checks each merged view and reconciliation count against the
/// reference.
void ExpectMatchesReferenceAtEveryBudget(
    const std::vector<std::vector<core::MicroCluster>>& shards,
    std::size_t dims, const std::string& label, bool tie_break = false) {
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  ASSERT_GE(total, 2u);
  for (std::size_t over = 1; over < total; ++over) {
    ShardMergeOptions options;
    options.dimensions = dims;
    options.dimension_threshold = 3.0;
    options.global_budget = total - over;
    std::size_t got_unions = 0;
    std::size_t want_unions = 0;
    const auto got = Merge(shards, options, &got_unions);
    const auto want =
        ReferenceMergeShardClusterSets(shards, options, &want_unions,
                                       tie_break);
    ASSERT_EQ(got_unions, want_unions) << label << " over=" << over;
    ASSERT_TRUE(Bytes(got) == Bytes(want)) << label << " over=" << over;
  }
}

// ---- Byte-for-byte parity with the reference -------------------------

TEST(ShardMergeTest, MatchesFullSortReference) {
  for (const std::size_t num_shards : {2u, 3u, 4u, 8u}) {
    for (const std::size_t dims : {1u, 3u, 20u, 64u}) {
      for (const bool dead : {false, true}) {
        util::Rng rng(1000 * num_shards + 10 * dims + (dead ? 1 : 0));
        const std::size_t per_shard = num_shards >= 8 ? 6 : 14;
        std::vector<std::vector<core::MicroCluster>> shards;
        for (std::size_t s = 0; s < num_shards; ++s) {
          shards.push_back(RandomShardClusters(rng, dims, per_shard, dead));
        }
        ExpectMatchesReferenceAtEveryBudget(
            shards, dims,
            "shards=" + std::to_string(num_shards) +
                " d=" + std::to_string(dims) + " dead=" +
                std::to_string(dead));
      }
    }
  }
}

TEST(ShardMergeTest, MatchesTieBrokenReferenceWithDuplicatedClusters) {
  // A cluster copied into every shard ties exactly with its copies
  // against every later cluster, and tied groups straddle the budget
  // cut at some budgets; there only the tie-broken reference has an
  // answer to compare with.
  for (const std::size_t num_shards : {2u, 3u, 4u, 8u}) {
    for (const std::size_t dims : {1u, 3u, 20u, 64u}) {
      util::Rng rng(77 * num_shards + dims);
      std::vector<std::vector<core::MicroCluster>> shards;
      for (std::size_t s = 0; s < num_shards; ++s) {
        shards.push_back(RandomShardClusters(rng, dims, 8, dims > 1));
      }
      DuplicateAcrossShards(rng, &shards);
      ExpectMatchesReferenceAtEveryBudget(
          shards, dims,
          "dup shards=" + std::to_string(num_shards) +
              " d=" + std::to_string(dims),
          /*tie_break=*/true);
    }
  }
}

TEST(ShardMergeTest, UnderBudgetOnlyTagsIds) {
  util::Rng rng(5);
  std::vector<std::vector<core::MicroCluster>> shards = {
      RandomShardClusters(rng, 4, 3, false),
      RandomShardClusters(rng, 4, 2, false)};
  ShardMergeOptions options;
  options.dimensions = 4;
  options.global_budget = 5;
  std::size_t unions = 7;
  const auto merged = Merge(shards, options, &unions);
  EXPECT_EQ(unions, 0u);
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged.frame.id(0), shards[0][0].id);
  EXPECT_EQ(merged.frame.id(3), (1ull << kShardIdShift) | shards[1][0].id);
}

TEST(ShardMergeTest, NullShardKeepsItsSlotInTheIdTags) {
  // A shard with nothing to contribute (an aggregator's missing or stale
  // leaf) is a null entry: later shards keep their own index in the tag.
  util::Rng rng(9);
  const core::LabeledFrame a = ToFrame(RandomShardClusters(rng, 3, 2, false), 3);
  const core::LabeledFrame c = ToFrame(RandomShardClusters(rng, 3, 2, false), 3);
  const std::vector<const core::LabeledFrame*> shard_sets = {&a, nullptr, &c};
  ShardMergeOptions options;
  options.dimensions = 3;
  options.global_budget = 4;
  const core::LabeledFrame merged = MergeShardClusterSets(shard_sets, options);
  ASSERT_EQ(merged.size(), 4u);
  ASSERT_EQ(merged.labels.size(), 4u);
  EXPECT_EQ(merged.frame.id(1), a.frame.id(1));
  EXPECT_EQ(merged.frame.id(2), (2ull << kShardIdShift) | c.frame.id(0));
  EXPECT_EQ(merged.labels[3], c.labels[1]);
}

// ---- The union order is total -----------------------------------------

/// A cluster of `points` deterministic points (zero errors) at
/// `centre` + j, shifted by `offset`: twins built with different offsets
/// have the same weight and error terms and different centroids.
core::MicroCluster ExactCluster(std::uint64_t id, std::size_t dims,
                                double offset) {
  core::MicroCluster cluster;
  cluster.id = id;
  cluster.creation_time = 5.0;
  cluster.ecf = core::ErrorClusterFeature(dims);
  for (int m = 0; m < 3; ++m) {
    stream::UncertainPoint point;
    point.values.resize(dims);
    point.errors.assign(dims, 0.0);
    for (std::size_t j = 0; j < dims; ++j) {
      point.values[j] = offset + static_cast<double>(j) + 0.25 * m;
    }
    cluster.ecf.AddPoint(point);
  }
  cluster.labels[0] = 3.0;
  return cluster;
}

TEST(ShardMergeTest, ExactTiesUniteTheLexicographicallySmallestPair) {
  // Every shard reports the same cluster set, in which clusters 0 and 5
  // are error-free twins (same weight and error terms, different
  // centroids). Each twin's copies across shards score the maximal
  // vote at d2 = 0, so all those pairs tie exactly in (similarity, d2):
  // for 2 shards (0, 12) and (5, 17), for 3 shards also (0, 24),
  // (12, 24), and so on. With one union allowed the merge must unite
  // (0, 12), the lexicographically smallest tied pair, whatever order
  // std::sort would have left the ties in.
  constexpr std::size_t kDims = 6;
  constexpr std::size_t kPerShard = 12;
  for (const std::size_t num_shards : {2u, 3u, 4u}) {
    util::Rng rng(31);
    std::vector<core::MicroCluster> set =
        RandomShardClusters(rng, kDims, kPerShard, false);
    set[0] = ExactCluster(1, kDims, 0.0);
    set[5] = ExactCluster(6, kDims, 40.0);
    const std::vector<std::vector<core::MicroCluster>> shards(num_shards,
                                                              set);
    const std::size_t q = num_shards * kPerShard;

    // Brute force over the reference similarity: the best score, how
    // many pairs reach it exactly, and the smallest (a, b) among them.
    std::vector<double> inv_scaled(kDims);
    core::ErrorClusterFeature aggregate(kDims);
    for (const auto& shard : shards) {
      for (const auto& cluster : shard) aggregate.Merge(cluster.ecf);
    }
    for (std::size_t j = 0; j < kDims; ++j) {
      inv_scaled[j] = 1.0 / (3.0 * aggregate.VarianceAt(j));
    }
    double best_sim = -1.0;
    double best_d2 = 0.0;
    std::size_t best_a = q;
    std::size_t best_b = q;
    std::size_t ties = 0;
    for (std::size_t a = 0; a + 1 < q; ++a) {
      for (std::size_t b = a + 1; b < q; ++b) {
        double d2 = 0.0;
        const double sim = ClusterSimilarity(set[a % kPerShard].ecf,
                                             set[b % kPerShard].ecf,
                                             inv_scaled, &d2);
        if (sim > best_sim || (sim == best_sim && d2 < best_d2)) {
          best_sim = sim;
          best_d2 = d2;
          best_a = a;
          best_b = b;
          ties = 1;
        } else if (sim == best_sim && d2 == best_d2) {
          ++ties;
        }
      }
    }
    const std::size_t pairs_per_twin = num_shards * (num_shards - 1) / 2;
    ASSERT_EQ(ties, 2 * pairs_per_twin) << "shards=" << num_shards;
    ASSERT_EQ(best_a, 0u);
    ASSERT_EQ(best_b, kPerShard);

    ShardMergeOptions options;
    options.dimensions = kDims;
    options.dimension_threshold = 3.0;
    options.global_budget = q - 1;
    std::size_t unions = 0;
    const auto merged = Merge(shards, options, &unions);
    ASSERT_EQ(unions, 1u);
    // Cluster 0 of shard 0 absorbs its copy from shard 1 (equal weights:
    // shard 0's id stays); every other cluster keeps its position.
    std::vector<core::MicroCluster> expected;
    for (std::size_t i = 0; i < q; ++i) {
      if (i == kPerShard) continue;
      core::MicroCluster cluster = set[i % kPerShard];
      cluster.id |= static_cast<std::uint64_t>(i / kPerShard)
                    << kShardIdShift;
      if (i == 0) {
        cluster.ecf.Merge(set[0].ecf);
        cluster.labels[0] += set[0].labels.at(0);
      }
      expected.push_back(std::move(cluster));
    }
    EXPECT_TRUE(Bytes(merged) == Bytes(expected)) << "shards=" << num_shards;
  }
}

}  // namespace
}  // namespace umicro::parallel
