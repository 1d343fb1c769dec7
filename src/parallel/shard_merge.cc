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

core::LabeledFrame MergeShardClusterSets(
    std::span<const core::LabeledFrame* const> shard_sets,
    const ShardMergeOptions& options, std::size_t* reconciliations) {
  if (reconciliations != nullptr) *reconciliations = 0;
  const std::size_t dims = options.dimensions;
  core::LabeledFrame merged{core::Snapshot(0.0, dims), {}};
  for (std::size_t i = 0; i < shard_sets.size(); ++i) {
    if (shard_sets[i] == nullptr) continue;
    const core::Snapshot& shard = shard_sets[i]->frame;
    UMICRO_CHECK(shard.empty() || shard.dims() == dims);
    UMICRO_CHECK(shard_sets[i]->labels.size() == shard.size());
    for (std::size_t k = 0; k < shard.size(); ++k) {
      UMICRO_DCHECK(shard.id(k) < (1ull << kShardIdShift));
      merged.frame.Append(
          (static_cast<std::uint64_t>(i) << kShardIdShift) | shard.id(k),
          shard.creation_time(k), shard.weight(k), shard.last_update_time(k),
          shard.cf1(k), shard.cf2(k), shard.ef2(k));
      merged.labels.push_back(shard_sets[i]->labels[k]);
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
  const core::Snapshot& frame = merged.frame;
  std::vector<double> cf1(dims, 0.0);
  std::vector<double> cf2(dims, 0.0);
  double weight = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    for (std::size_t j = 0; j < dims; ++j) {
      cf1[j] += frame.cf1(i)[j];
      cf2[j] += frame.cf2(i)[j];
    }
    weight += frame.weight(i);
  }
  std::vector<double> inv_scaled(dims, 0.0);
  for (std::size_t j = 0; j < dims; ++j) {
    const double scaled =
        options.dimension_threshold * core::VarianceAt(cf1[j], cf2[j], weight);
    inv_scaled[j] = scaled > 0.0 ? 1.0 / scaled : 0.0;
  }

  // Score every pair on the kernel tier from per-row terms staged once
  // straight from the records (bit-identical to ClusterSimilarity on
  // every tier).
  kernels::PairTermTable terms(dims, q);
  for (std::size_t i = 0; i < q; ++i) {
    terms.SetRow(i, frame.cf1(i), frame.ef2(i), frame.weight(i));
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

  // Materialize one record (slots: id, creation time, weight, t(C), then
  // the statistic rows) per union-find component; a member heavier than
  // the record so far donates identity, the earliest member the creation
  // time (mirroring the sequential closest-pair merge rule).
  core::LabeledFrame reconciled{core::Snapshot(0.0, dims, components), {}};
  reconciled.labels.reserve(components);
  std::vector<std::size_t> root_slot(q, q);
  for (std::size_t i = 0; i < q; ++i) {
    const std::size_t root = FindRoot(parent, i);
    if (root_slot[root] == q) {
      root_slot[root] = reconciled.size();
      reconciled.frame.AppendRecord(frame.record(i));
      reconciled.labels.push_back(std::move(merged.labels[i]));
      continue;
    }
    double* into = reconciled.frame.mutable_record(root_slot[root]);
    const double* from = frame.record(i);
    if (from[2] > into[2]) into[0] = from[0];
    into[1] = std::min(into[1], from[1]);
    into[2] += from[2];
    into[3] = std::max(into[3], from[3]);
    for (std::size_t v = core::Snapshot::kHeaderSlots;
         v < core::Snapshot::RecordSize(dims); ++v) {
      into[v] += from[v];
    }
    for (const auto& [label, mass] : merged.labels[i]) {
      reconciled.labels[root_slot[root]][label] += mass;
    }
  }
  return reconciled;
}

}  // namespace umicro::parallel
