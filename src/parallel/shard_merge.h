// Exact additive merge of per-shard micro-cluster sets.
//
// The error-based cluster features are additive (Property 2.1), so any
// partition of a stream across shard-local UMicro instances can be
// combined into one global clustering without approximating the
// statistics. It reads and returns core::LabeledFrames, record by
// record. This is the single merge routine behind both consumers:
//
//   - ParallelUMicroEngine::RebuildGlobalView (threads of one process), and
//   - dist::Aggregator (leaf processes of a merge tree, shipping their
//     summaries over sockets);
//
// which is what makes the distributed topology *bit-identical* to the
// in-process sharded run on the same partitioned input -- the two tiers
// cannot drift because they share this code.
//
// Shard-local cluster ids are tagged with the shard index in the high
// bits (shard 0 keeps its ids verbatim); when the concatenated sets
// exceed the global budget, near-duplicate clusters are reconciled by
// greedily uniting the most similar pairs under the paper's
// dimension-counting vote until the budget holds. Reconciliation merges
// are exact ECF additions: granularity changes, statistics never do.

#ifndef UMICRO_PARALLEL_SHARD_MERGE_H_
#define UMICRO_PARALLEL_SHARD_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/cluster_feature.h"
#include "core/microcluster.h"

namespace umicro::parallel {

/// Shard index is tagged into the high bits of the global cluster id so
/// ids stay unique and stable across shards (shard 0 keeps its local ids
/// verbatim, which is what makes the 1-shard pipeline bit-identical to
/// the sequential algorithm).
inline constexpr unsigned kShardIdShift = 48;

/// Merge configuration (mirrors the ShardedUMicroOptions knobs that feed it).
struct ShardMergeOptions {
  /// Stream dimensionality.
  std::size_t dimensions = 0;
  /// The `thresh` knob of the dimension-counting similarity used for
  /// reconciliation.
  double dimension_threshold = 3.0;
  /// Micro-cluster budget of the merged view (> 0).
  std::size_t global_budget = 100;
};

/// Dimension-counting similarity between two micro-clusters (the paper's
/// Section II-B vote, lifted from point-vs-cluster to cluster-vs-cluster):
/// each cluster's centroid is an uncertain observation whose per-dimension
/// error mass is EF2_j/n^2 (Lemma 2.1), so the expected squared centroid
/// gap along dimension j is (mu_a - mu_b)^2 + EF2a_j/na^2 + EF2b_j/nb^2,
/// and dimension j votes max{0, 1 - gap_j/(thresh*sigma_j^2)}.
/// `inv_scaled[j]` caches 1/(thresh*sigma_j^2) (0 for dead dimensions).
/// Also reports the plain squared centroid distance for tie-breaking.
/// The merge scores pairs with kernels::PairSimilarityRow, which is bit
/// for bit this function on every tier; this is its reference.
double ClusterSimilarity(const core::ErrorClusterFeature& a,
                         const core::ErrorClusterFeature& b,
                         const std::vector<double>& inv_scaled,
                         double* centroid_dist2);

/// Merges `shard_sets` (one frame per shard, shard order; null for a
/// shard that contributes nothing) into a single global view of
/// `options.dimensions`-d records at time 0: tags ids by shard index,
/// then reconciles near-duplicates down to `options.global_budget` when
/// over budget. Pairs are united in a strict total order -- similarity
/// descending, then squared centroid distance ascending, then (a, b)
/// ascending over the concatenated positions -- so exact score ties
/// resolve the same way everywhere. `reconciliations` (optional)
/// receives the number of pairwise unions performed.
core::LabeledFrame MergeShardClusterSets(
    std::span<const core::LabeledFrame* const> shard_sets,
    const ShardMergeOptions& options,
    std::size_t* reconciliations = nullptr);

}  // namespace umicro::parallel

#endif  // UMICRO_PARALLEL_SHARD_MERGE_H_
