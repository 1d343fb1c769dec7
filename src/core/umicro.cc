#include "core/umicro.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/expected_distance.h"
#include "obs/scoped_timer.h"
#include "util/check.h"

namespace umicro::core {

UMicro::UMicro(std::size_t dimensions, UMicroOptions options)
    : dimensions_(dimensions),
      options_(options),
      table_(dimensions),
      welford_(dimensions),
      global_variances_(dimensions, 0.0),
      scaled_inverse_variances_(dimensions, 0.0) {
  UMICRO_CHECK(dimensions > 0);
  UMICRO_CHECK(options_.num_micro_clusters > 0);
  UMICRO_CHECK(options_.boundary_factor > 0.0);
  UMICRO_CHECK(options_.dimension_threshold > 0.0);
  UMICRO_CHECK(options_.decay_lambda >= 0.0);
  UMICRO_CHECK(options_.eviction_horizon >= 0.0);
  UMICRO_CHECK(options_.variance_refresh_interval > 0);
  clusters_.reserve(options_.num_micro_clusters + 1);
  table_.Reserve(options_.num_micro_clusters + 1);
  scores_scratch_.reserve(options_.num_micro_clusters + 1);
  // The candidate index serves only the expected-distance similarity:
  // the dimension-counting vote has no safe Euclidean pruning bound (a
  // vote-pruned dimension absorbs unbounded distance at zero vote cost;
  // docs/indexing.md), so counting instances keep the flat scan.
  if (options_.similarity == SimilarityMode::kExpectedDistance) {
    assign_index_ = index::MakeCentroidIndex(options_.assign_index);
  }
}

std::string UMicro::name() const {
  return options_.decay_lambda > 0.0 ? "UMicro(decay)" : "UMicro";
}

void UMicro::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    process_micros_ = nullptr;
    batch_micros_ = nullptr;
    closest_pair_micros_ = nullptr;
    kernel_tier_metric_ = nullptr;
    points_metric_ = nullptr;
    kernel_scans_metric_ = nullptr;
    absorbed_metric_ = nullptr;
    created_metric_ = nullptr;
    evicted_metric_ = nullptr;
    merged_metric_ = nullptr;
    live_clusters_metric_ = nullptr;
    index_queries_metric_ = nullptr;
    index_candidates_metric_ = nullptr;
    index_rebuilds_metric_ = nullptr;
    index_prune_ratio_metric_ = nullptr;
    return;
  }
  process_micros_ = &registry->GetHistogram("umicro.process_micros");
  batch_micros_ = &registry->GetHistogram("umicro.batch_micros");
  closest_pair_micros_ =
      &registry->GetHistogram("umicro.closest_pair_micros");
  kernel_tier_metric_ = &registry->GetGauge("umicro.kernel_tier");
  kernel_tier_metric_->Set(static_cast<double>(table_.backend()));
  points_metric_ = &registry->GetCounter("umicro.points");
  kernel_scans_metric_ = &registry->GetCounter("umicro.kernel_scans");
  absorbed_metric_ = &registry->GetCounter("umicro.absorbed");
  created_metric_ = &registry->GetCounter("umicro.created");
  evicted_metric_ = &registry->GetCounter("umicro.evicted");
  merged_metric_ = &registry->GetCounter("umicro.merged");
  live_clusters_metric_ = &registry->GetGauge("umicro.live_clusters");
  // Index metrics only exist for instances that can actually index
  // (expected-distance similarity + non-flat kind), so flat/counting
  // runs keep their metric exports unchanged.
  if (assign_index_ != nullptr) {
    index_queries_metric_ = &registry->GetCounter("umicro.index.queries");
    index_candidates_metric_ =
        &registry->GetCounter("umicro.index.candidates");
    index_rebuilds_metric_ = &registry->GetCounter("umicro.index.rebuilds");
    index_prune_ratio_metric_ =
        &registry->GetGauge("umicro.index.prune_ratio");
  }
}

void UMicro::ApplyDecay(double now) {
  if (options_.decay_lambda <= 0.0) return;
  if (!decay_clock_started_) {
    decay_clock_started_ = true;
    last_decay_time_ = now;
    return;
  }
  const double dt = now - last_decay_time_;
  if (dt <= 0.0) return;
  // All statistics decay at the shared rate 2^(-lambda) per time unit
  // (Section II-E); one factor therefore applies to every cluster.
  const double factor = std::exp2(-options_.decay_lambda * dt);
  if (factor < std::numeric_limits<double>::min()) {
    // The gap was long enough to underflow the factor to zero or
    // denormal: every statistic is fully decayed. Scaling by such a
    // factor would leave denormal dust (or trip the scale kernel's
    // positivity contract), so the cluster set is dropped outright --
    // the stream effectively restarts after the gap.
    clusters_.clear();
    table_.Reset(dimensions_);
    if (assign_index_ != nullptr) assign_index_->Invalidate();
    pair_cache_.Invalidate();
    last_decay_time_ = now;
    return;
  }
  for (auto& cluster : clusters_) cluster.Decay(factor);
  // Mirror the decay in the SoA table (bit-identical scale kernel).
  table_.ScaleAll(factor);
  // Centroids are scale-invariant in real arithmetic; the index accounts
  // the few-ulp re-derivation wobble per scale event.
  if (assign_index_ != nullptr) assign_index_->NoteScale();
  // The re-derived centroids wobble by ulps, so every cached distance
  // is stale: the next merge rebuilds the pair cache.
  pair_cache_.Invalidate();
  last_decay_time_ = now;
}

void UMicro::UpdateGlobalVariances(const stream::UncertainPoint& point) {
  switch (options_.variance_source) {
    case VarianceSource::kStreamWelford: {
      for (std::size_t j = 0; j < dimensions_; ++j) {
        welford_[j].Add(point.values[j]);
        global_variances_[j] = welford_[j].PopulationVariance();
      }
      break;
    }
    case VarianceSource::kClusterAggregate: {
      if (points_processed_ % options_.variance_refresh_interval != 0 &&
          !clusters_.empty()) {
        return;
      }
      // Sum every micro-cluster's CF vector into one global feature
      // vector and apply the BIRCH variance formula (the paper's recipe).
      ErrorClusterFeature global(dimensions_);
      for (const auto& cluster : clusters_) global.Merge(cluster.ecf);
      if (global.empty()) return;
      for (std::size_t j = 0; j < dimensions_; ++j) {
        global_variances_[j] = global.VarianceAt(j);
      }
      break;
    }
  }
  for (std::size_t j = 0; j < dimensions_; ++j) {
    const double scaled = options_.dimension_threshold * global_variances_[j];
    scaled_inverse_variances_[j] = scaled > 0.0 ? 1.0 / scaled : 0.0;
  }
}

std::size_t UMicro::FindClosest(const stream::UncertainPoint& point) const {
  UMICRO_DCHECK(!clusters_.empty());
  UMICRO_DCHECK(table_.rows() == clusters_.size());
  const std::size_t q = table_.rows();
  const bool counting =
      options_.similarity == SimilarityMode::kDimensionCounting;
  const bool paper_form =
      options_.distance_form == DistanceForm::kPaperExpected;
  const kernels::Backend backend = table_.backend();
  const double* errors =
      point.errors.empty() ? nullptr : point.errors.data();

  // Stage the point once (O(d)), then scan all q rows through the
  // batch kernels (kernels::BatchDimensionVotes mirrors the old inline
  // similarity loop; its scalar tier reproduces it exactly).
  point_ctx_.Prepare(table_, point.values.data(), errors,
                     counting ? scaled_inverse_variances_.data() : nullptr);
  scores_scratch_.resize(q);
  if (counting) {
    kernels::BatchDimensionVotes(table_, point_ctx_, paper_form, backend,
                                 scores_scratch_.data());
    const std::size_t best = kernels::ArgMax(scores_scratch_.data(), q);
    if (scores_scratch_[best] > 0.0) return best;
    // Every dimension of every cluster was pruned (all expected
    // distances beyond thresh*sigma^2): the vote is uninformative, so
    // fall back to the distance to break the tie.
  }
  const kernels::DistanceKind kind = paper_form
                                         ? kernels::DistanceKind::kExpected
                                         : kernels::DistanceKind::kGeometric;
  if (assign_index_ != nullptr &&
      assign_index_->Collect(
          table_, point_ctx_.x.data(),
          /*include_cluster_error=*/kind == kernels::DistanceKind::kExpected,
          kind == kernels::DistanceKind::kExpected ? point_ctx_.psi2_sum
                                                   : 0.0,
          &candidates_scratch_)) {
    // Exact refinement on the shortlist: the gathered kernel computes
    // the same per-row values as the full scan, and the shortlist is
    // ascending and provably contains the full scan's winner, so the
    // first-wins ArgMin maps back to the identical row.
    kernels::GatherSquaredDistances(table_, point_ctx_, kind, backend,
                                    candidates_scratch_.data(),
                                    candidates_scratch_.size(),
                                    scores_scratch_.data());
    const std::size_t best =
        kernels::ArgMin(scores_scratch_.data(), candidates_scratch_.size());
    return candidates_scratch_[best];
  }
  kernels::BatchSquaredDistances(table_, point_ctx_, kind, backend,
                                 scores_scratch_.data());
  return kernels::ArgMin(scores_scratch_.data(), q);
}

double UMicro::UncertaintyBoundary(std::size_t index) const {
  const MicroCluster& cluster = clusters_[index];
  if (cluster.ecf.weight() >= 2.0) {
    const double own_radius =
        options_.boundary_factor * cluster.ecf.UncertainRadius();
    if (own_radius > 0.0) return own_radius;
  }

  // (Near-)singleton cluster: its own deviation statistics are not yet
  // meaningful (a lone point's uncertain radius reflects only its
  // measurement error, which under heavy noise spans the whole data
  // space and would make the first micro-cluster swallow the entire
  // stream), so use half the distance to the nearest other micro-cluster
  // centroid instead -- the CluStream convention, halved so the boundary
  // stays inside this cluster's Voronoi cell. With no other cluster to
  // measure against the boundary is 0: a lone singleton absorbs only
  // exact duplicates and the cluster set can grow from the start.
  // Reads the table's bit-identical cf1/weight mirrors (contiguous rows)
  // and divides this cluster's centroid out once, not once per row.
  double nearest = 0.0;
  if (clusters_.size() > 1) {
    double nearest_d2 = std::numeric_limits<double>::infinity();
    const double n_self = table_.weight(index);
    const double* cf1_self = table_.cf1_row(index);
    boundary_scratch_.resize(dimensions_);
    double* centroid_self = boundary_scratch_.data();
    for (std::size_t j = 0; j < dimensions_; ++j) {
      centroid_self[j] = cf1_self[j] / n_self;
    }
    for (std::size_t i = 0; i < clusters_.size(); ++i) {
      if (i == index) continue;
      const double n_other = table_.weight(i);
      const double* cf1_other = table_.cf1_row(i);
      double d2 = 0.0;
      for (std::size_t j = 0; j < dimensions_; ++j) {
        const double diff = centroid_self[j] - cf1_other[j] / n_other;
        d2 += diff * diff;
      }
      nearest_d2 = std::min(nearest_d2, d2);
    }
    nearest = 0.5 * std::sqrt(nearest_d2);
  }
  return nearest;
}

bool UMicro::ShouldAbsorb(const stream::UncertainPoint& point,
                          std::size_t index, double expected_distance) const {
  const MicroCluster& cluster = clusters_[index];
  const double boundary = UncertaintyBoundary(index);

  if (options_.distance_form == DistanceForm::kPaperExpected) {
    // Paper-literal: the expected distance (Lemma 2.2) against t
    // standard deviations of the expected point-to-centroid distances
    // (Eq. 6). Under strong noise this over-absorbs, since the boundary
    // carries t^2 times the error mass the distance does.
    return expected_distance <= boundary;
  }

  // Bias-corrected (default): the geometric distance between the
  // instantiation and the expected centroid against the boundary. The
  // mature-cluster boundary is still the paper's uncertain radius (t*U,
  // Eq. 6), which is error-aware: heavily uncertain clusters accept a
  // wider neighborhood, but the acceptance test itself cannot be gamed
  // by the point's or the cluster's error mass.
  return std::sqrt(GeometricSquaredDistance(point, cluster.ecf)) <=
         boundary;
}

void UMicro::Process(const stream::UncertainPoint& point) {
  ProcessAndExplain(point);
}

void UMicro::ProcessBatch(std::span<const stream::UncertainPoint> points) {
  if (points.empty()) return;
  const obs::ScopedTimer timer(batch_micros_);
  BatchCounters counters;
  for (const auto& point : points) ProcessOne(point, &counters);
  FlushCounters(counters, points.size());
}

UMicro::ProcessOutcome UMicro::ProcessAndExplain(
    const stream::UncertainPoint& point) {
  const obs::ScopedTimer timer(process_micros_);
  BatchCounters counters;
  const ProcessOutcome outcome = ProcessOne(point, &counters);
  FlushCounters(counters, 1);
  return outcome;
}

UMicro::ProcessOutcome UMicro::ProcessOne(const stream::UncertainPoint& point,
                                          BatchCounters* counters) {
  UMICRO_CHECK_MSG(point.dimensions() == dimensions_,
                   "point has %zu dimensions, algorithm expects %zu",
                   point.dimensions(), dimensions_);
  ++points_processed_;
  ApplyDecay(point.timestamp);
  UpdateGlobalVariances(point);

  const double* errors =
      point.errors.empty() ? nullptr : point.errors.data();
  ProcessOutcome outcome;
  if (!clusters_.empty()) {
    // One similarity-kernel scan per live cluster: the per-point cost of
    // the expected-distance kernel, in units of cluster comparisons.
    counters->scans += clusters_.size();
    const std::size_t closest = FindClosest(point);
    outcome.expected_distance =
        std::sqrt(ExpectedSquaredDistance(point, clusters_[closest].ecf));
    if (ShouldAbsorb(point, closest, outcome.expected_distance)) {
      if (assign_index_ != nullptr) {
        // Folding a unit-weight point moves the centroid by exactly
        // ||x - c_old|| / (n + 1) (real arithmetic); report it before
        // the table mutates so the index's drift bound stays true.
        const double* c_old = table_.centroid_row(closest);
        double d2 = 0.0;
        for (std::size_t j = 0; j < dimensions_; ++j) {
          const double diff = point.values[j] - c_old[j];
          d2 += diff * diff;
        }
        assign_index_->NoteDrift(closest,
                                 std::sqrt(d2) /
                                     (table_.weight(closest) + 1.0));
      }
      clusters_[closest].AddPoint(point);
      table_.AddPoint(closest, point.values.data(), errors, 1.0);
      pair_cache_.NoteChanged(closest);
      outcome.absorbed = true;
      outcome.cluster_id = clusters_[closest].id;
      ++counters->absorbed;
      return outcome;
    }
  }

  clusters_.emplace_back(next_cluster_id_++, point);
  table_.PushPointRow(point.values.data(), errors, 1.0);
  if (assign_index_ != nullptr) assign_index_->NoteAppend();
  pair_cache_.NoteAppend();
  ++clusters_created_;
  ++counters->created;
  outcome.absorbed = false;
  outcome.cluster_id = clusters_.back().id;
  if (clusters_.size() > options_.num_micro_clusters) {
    RetireOneCluster(point.timestamp);
  }
  return outcome;
}

void UMicro::FlushCounters(const BatchCounters& counters,
                           std::size_t points) {
  if (points_metric_ != nullptr) points_metric_->Increment(points);
  if (kernel_scans_metric_ != nullptr && counters.scans > 0) {
    kernel_scans_metric_->Increment(counters.scans);
  }
  if (absorbed_metric_ != nullptr && counters.absorbed > 0) {
    absorbed_metric_->Increment(counters.absorbed);
  }
  if (created_metric_ != nullptr && counters.created > 0) {
    created_metric_->Increment(counters.created);
  }
  if (live_clusters_metric_ != nullptr && counters.created > 0) {
    live_clusters_metric_->Set(static_cast<double>(clusters_.size()));
  }
  if (assign_index_ != nullptr && index_queries_metric_ != nullptr) {
    const index::IndexStats& stats = assign_index_->stats();
    if (stats.queries > flushed_index_stats_.queries) {
      index_queries_metric_->Increment(stats.queries -
                                       flushed_index_stats_.queries);
    }
    if (stats.candidates > flushed_index_stats_.candidates) {
      index_candidates_metric_->Increment(stats.candidates -
                                          flushed_index_stats_.candidates);
    }
    if (stats.rebuilds > flushed_index_stats_.rebuilds) {
      index_rebuilds_metric_->Increment(stats.rebuilds -
                                        flushed_index_stats_.rebuilds);
    }
    if (stats.scanned_rows > 0) {
      index_prune_ratio_metric_->Set(
          1.0 - static_cast<double>(stats.candidates) /
                    static_cast<double>(stats.scanned_rows));
    }
    flushed_index_stats_ = stats;
  }
}

void UMicro::RetireOneCluster(double now) {
  // The paper's rule: evict the least recently updated micro-cluster --
  // applied when that cluster is actually stale. When every cluster is
  // fresh, evicting would just churn through singletons, so the two
  // closest micro-clusters are merged instead (the consolidation step of
  // the CluStream framework this algorithm extends); the additive
  // property makes the merge exact.
  std::size_t lru = 0;
  for (std::size_t i = 1; i < clusters_.size(); ++i) {
    if (clusters_[i].ecf.last_update_time() <
        clusters_[lru].ecf.last_update_time()) {
      lru = i;
    }
  }
  if (clusters_[lru].ecf.last_update_time() <
      now - options_.eviction_horizon) {
    clusters_.erase(clusters_.begin() + static_cast<std::ptrdiff_t>(lru));
    table_.RemoveRow(lru);
    // Row ids shifted: the index snapshot is stale, rebuild lazily.
    if (assign_index_ != nullptr) assign_index_->Invalidate();
    pair_cache_.NoteRemove(lru);
    ++clusters_evicted_;
    if (evicted_metric_ != nullptr) evicted_metric_->Increment();
    return;
  }

  // Closest pair over the table's centroid rows: the cache repairs the
  // rows that moved since the last merge (or rebuilds with the blocked
  // all-pairs kernel) and returns the pair that kernel would.
  std::size_t best_a = 0;
  std::size_t best_b = 1;
  double best_d2 = std::numeric_limits<double>::infinity();
  {
    const obs::ScopedTimer pair_timer(closest_pair_micros_);
    pair_cache_.Find(table_, table_.backend(), &best_a, &best_b, &best_d2);
  }
  MicroCluster& into = clusters_[best_a];
  MicroCluster& from = clusters_[best_b];
  // The merged cluster continues under the heavier constituent's
  // identity; the lighter id disappears, which horizon subtraction
  // treats as a removed cluster (documented approximation).
  if (from.ecf.weight() > into.ecf.weight()) {
    std::swap(into.id, from.id);
    std::swap(into.creation_time, from.creation_time);
  }
  into.creation_time = std::min(into.creation_time, from.creation_time);
  into.ecf.Merge(from.ecf);
  table_.MergeRows(best_a, best_b);
  pair_cache_.NoteChanged(best_a);
  for (const auto& [label, weight] : from.labels) {
    into.labels[label] += weight;
  }
  clusters_.erase(clusters_.begin() + static_cast<std::ptrdiff_t>(best_b));
  table_.RemoveRow(best_b);
  pair_cache_.NoteRemove(best_b);
  // The merged row jumped position and the rest shifted: rebuild lazily.
  if (assign_index_ != nullptr) assign_index_->Invalidate();
  ++clusters_merged_;
  if (merged_metric_ != nullptr) merged_metric_->Increment();
}

UMicroState UMicro::ExportState() const {
  UMicroState state;
  state.clusters = clusters_;
  state.welford.reserve(welford_.size());
  for (const auto& acc : welford_) {
    state.welford.push_back({acc.count(), acc.Mean(), acc.m2()});
  }
  state.global_variances = global_variances_;
  state.next_cluster_id = next_cluster_id_;
  state.points_processed = points_processed_;
  state.clusters_created = clusters_created_;
  state.clusters_evicted = clusters_evicted_;
  state.clusters_merged = clusters_merged_;
  state.last_decay_time = last_decay_time_;
  state.decay_clock_started = decay_clock_started_;
  return state;
}

void UMicro::RestoreState(const UMicroState& state) {
  UMICRO_CHECK_MSG(state.welford.size() == dimensions_,
                   "state has %zu dimensions, algorithm expects %zu",
                   state.welford.size(), dimensions_);
  UMICRO_CHECK(state.global_variances.size() == dimensions_);
  for (const auto& cluster : state.clusters) {
    UMICRO_CHECK(cluster.ecf.dimensions() == dimensions_);
  }
  clusters_ = state.clusters;
  // Rebuild the SoA mirror from the restored structs (raw copies, so
  // mirror and structs start out bit-identical again).
  table_.Reset(dimensions_);
  table_.Reserve(clusters_.size());
  for (const auto& cluster : clusters_) {
    table_.PushRow(cluster.ecf.cf1().data(), cluster.ecf.cf2().data(),
                   cluster.ecf.ef2().data(), cluster.ecf.weight());
  }
  // Whatever the index and the pair cache mirrored is gone with the old
  // table.
  if (assign_index_ != nullptr) assign_index_->Invalidate();
  pair_cache_.Invalidate();
  welford_.clear();
  welford_.reserve(state.welford.size());
  for (const auto& raw : state.welford) {
    welford_.push_back(
        util::WelfordAccumulator::FromRaw(raw.count, raw.mean, raw.m2));
  }
  global_variances_ = state.global_variances;
  for (std::size_t j = 0; j < dimensions_; ++j) {
    const double scaled = options_.dimension_threshold * global_variances_[j];
    scaled_inverse_variances_[j] = scaled > 0.0 ? 1.0 / scaled : 0.0;
  }
  next_cluster_id_ = state.next_cluster_id;
  points_processed_ = state.points_processed;
  clusters_created_ = state.clusters_created;
  clusters_evicted_ = state.clusters_evicted;
  clusters_merged_ = state.clusters_merged;
  last_decay_time_ = state.last_decay_time;
  decay_clock_started_ = state.decay_clock_started;
}

std::vector<stream::LabelHistogram> UMicro::ClusterLabelHistograms() const {
  std::vector<stream::LabelHistogram> histograms;
  histograms.reserve(clusters_.size());
  for (const auto& cluster : clusters_) histograms.push_back(cluster.labels);
  return histograms;
}

std::vector<std::vector<double>> UMicro::ClusterCentroids() const {
  std::vector<std::vector<double>> centroids;
  centroids.reserve(clusters_.size());
  for (const auto& cluster : clusters_) {
    if (!cluster.ecf.empty()) centroids.push_back(cluster.ecf.Centroid());
  }
  return centroids;
}

Snapshot UMicro::TakeSnapshot(double time) const {
  Snapshot snapshot;
  snapshot.time = time;
  snapshot.clusters.reserve(clusters_.size());
  for (const auto& cluster : clusters_) {
    MicroClusterState state;
    state.id = cluster.id;
    state.creation_time = cluster.creation_time;
    state.ecf = cluster.ecf;
    snapshot.clusters.push_back(std::move(state));
  }
  return snapshot;
}

}  // namespace umicro::core
