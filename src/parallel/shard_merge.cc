#include "parallel/shard_merge.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "kernels/dispatch.h"
#include "kernels/pair_similarity.h"
#include "util/check.h"

namespace umicro::parallel {

namespace {

/// Path-compressing union-find root lookup.
std::size_t FindRoot(std::vector<std::size_t>& parent, std::size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];
    i = parent[i];
  }
  return i;
}

/// One candidate union of the reconciliation.
struct CandidatePair {
  double similarity;
  double dist2;
  std::uint32_t a;
  std::uint32_t b;
};

/// The union order, a strict total order over the pairs of one merge:
/// most similar first, then the nearer centroids, then the
/// lexicographically smallest (a, b). Exact score ties (the same cluster
/// reported by several shards) therefore resolve the same way on every
/// standard library.
bool UnitesBefore(const CandidatePair& x, const CandidatePair& y) {
  if (x.similarity != y.similarity) return x.similarity > y.similarity;
  if (x.dist2 != y.dist2) return x.dist2 < y.dist2;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

/// Smallest chunk of the union order selected at a time.
constexpr std::size_t kMinSelectChunk = 64;

}  // namespace

double ClusterSimilarity(const core::ErrorClusterFeature& a,
                         const core::ErrorClusterFeature& b,
                         const std::vector<double>& inv_scaled,
                         double* centroid_dist2) {
  const double inv_na = 1.0 / a.weight();
  const double inv_nb = 1.0 / b.weight();
  const double inv_na2 = inv_na * inv_na;
  const double inv_nb2 = inv_nb * inv_nb;
  double vote = 0.0;
  double d2 = 0.0;
  for (std::size_t j = 0; j < a.dimensions(); ++j) {
    const double diff = a.cf1()[j] * inv_na - b.cf1()[j] * inv_nb;
    const double geometric = diff * diff;
    d2 += geometric;
    if (inv_scaled[j] > 0.0) {
      const double expected =
          geometric + a.ef2()[j] * inv_na2 + b.ef2()[j] * inv_nb2;
      vote += std::max(0.0, 1.0 - expected * inv_scaled[j]);
    }
  }
  *centroid_dist2 = d2;
  return vote;
}

std::vector<core::MicroCluster> MergeShardClusterSets(
    std::vector<std::vector<core::MicroCluster>> shard_sets,
    const ShardMergeOptions& options, std::size_t* reconciliations) {
  if (reconciliations != nullptr) *reconciliations = 0;
  std::vector<core::MicroCluster> merged;
  for (std::size_t i = 0; i < shard_sets.size(); ++i) {
    for (core::MicroCluster& cluster : shard_sets[i]) {
      merged.push_back(std::move(cluster));
      UMICRO_DCHECK(merged.back().id < (1ull << kShardIdShift));
      merged.back().id =
          (static_cast<std::uint64_t>(i) << kShardIdShift) | merged.back().id;
    }
  }

  const std::size_t q = merged.size();
  if (q <= options.global_budget) {
    // Under budget (always the case with one shard): the shard view IS
    // the global view, untouched -- no reconciliation, exact statistics.
    return merged;
  }

  // Over budget: near-duplicate clusters -- the same stream region
  // discovered independently by several shards -- are reconciled by
  // greedily uniting the most similar pairs (dimension-counting vote,
  // centroid distance as tie-break) until the budget holds. The ECF
  // additions below are exact, so reconciliation changes granularity,
  // never statistics.
  core::ErrorClusterFeature aggregate(options.dimensions);
  for (const auto& cluster : merged) aggregate.Merge(cluster.ecf);
  std::vector<double> inv_scaled(options.dimensions, 0.0);
  for (std::size_t j = 0; j < options.dimensions; ++j) {
    const double scaled =
        options.dimension_threshold * aggregate.VarianceAt(j);
    inv_scaled[j] = scaled > 0.0 ? 1.0 / scaled : 0.0;
  }

  // Score every pair on the kernel tier from per-row terms staged once
  // (bit-identical to ClusterSimilarity on every tier).
  kernels::PairTermTable terms(options.dimensions, q);
  for (std::size_t i = 0; i < q; ++i) {
    const core::ErrorClusterFeature& ecf = merged[i].ecf;
    terms.SetRow(i, ecf.cf1().data(), ecf.ef2().data(), ecf.weight());
  }
  const kernels::Backend backend = kernels::DetectBackend();
  std::vector<double> votes(terms.stride());
  std::vector<double> dists(terms.stride());
  std::vector<CandidatePair> pairs;
  pairs.reserve(q * (q - 1) / 2);
  for (std::size_t a = 0; a + 1 < q; ++a) {
    kernels::PairSimilarityRow(terms, inv_scaled.data(), a, backend,
                               votes.data(), dists.data());
    for (std::size_t b = a + 1; b < q; ++b) {
      UMICRO_DCHECK(std::isfinite(votes[b]) && std::isfinite(dists[b]));
      pairs.push_back({votes[b], dists[b], static_cast<std::uint32_t>(a),
                       static_cast<std::uint32_t>(b)});
    }
  }

  // Unite pairs in UnitesBefore order until the budget holds. Only a
  // prefix of that order is ever consumed, so it is selected a chunk at
  // a time (nth_element, then a sort of the chunk) instead of sorting
  // all q(q-1)/2 pairs; under a strict total order the consumed prefix
  // is exactly the one a full sort gives.
  std::vector<std::size_t> parent(q);
  std::iota(parent.begin(), parent.end(), 0);
  std::size_t components = q;
  std::size_t unions = 0;
  std::size_t chunk = std::max<std::size_t>(2 * (q - options.global_budget),
                                            kMinSelectChunk);
  for (auto begin = pairs.begin();
       components > options.global_budget && begin != pairs.end();
       chunk *= 2) {
    const auto end =
        begin + static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                    chunk, static_cast<std::size_t>(pairs.end() - begin)));
    std::nth_element(begin, end, pairs.end(), UnitesBefore);
    std::sort(begin, end, UnitesBefore);
    for (; begin != end && components > options.global_budget; ++begin) {
      const std::size_t ra = FindRoot(parent, begin->a);
      const std::size_t rb = FindRoot(parent, begin->b);
      if (ra == rb) continue;
      parent[rb] = ra;
      --components;
      ++unions;
    }
  }
  if (reconciliations != nullptr) *reconciliations = unions;

  // Materialize one cluster per union-find component; the heaviest
  // member donates identity and the earliest member the creation time
  // (mirroring the sequential closest-pair merge rule).
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

}  // namespace umicro::parallel
