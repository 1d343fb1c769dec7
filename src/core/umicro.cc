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
  meta_.reserve(options_.num_micro_clusters + 1);
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
  metrics_ = {};
  if (registry == nullptr) return;
  metrics_.process_micros = &registry->GetHistogram("umicro.process_micros");
  metrics_.batch_micros = &registry->GetHistogram("umicro.batch_micros");
  metrics_.closest_pair_micros =
      &registry->GetHistogram("umicro.closest_pair_micros");
  metrics_.kernel_tier = &registry->GetGauge("umicro.kernel_tier");
  metrics_.kernel_tier->Set(static_cast<double>(table_.backend()));
  metrics_.points = &registry->GetCounter("umicro.points");
  metrics_.kernel_scans = &registry->GetCounter("umicro.kernel_scans");
  metrics_.absorbed = &registry->GetCounter("umicro.absorbed");
  metrics_.created = &registry->GetCounter("umicro.created");
  metrics_.evicted = &registry->GetCounter("umicro.evicted");
  metrics_.merged = &registry->GetCounter("umicro.merged");
  metrics_.pair_rows_scanned =
      &registry->GetCounter("umicro.pair_rows_scanned");
  metrics_.live_clusters = &registry->GetGauge("umicro.live_clusters");
  // Index metrics only exist for instances that can actually index
  // (expected-distance similarity + non-flat kind), so flat/counting
  // runs keep their metric exports unchanged.
  if (assign_index_ != nullptr) {
    metrics_.index_queries = &registry->GetCounter("umicro.index.queries");
    metrics_.index_candidates =
        &registry->GetCounter("umicro.index.candidates");
    metrics_.index_rebuilds = &registry->GetCounter("umicro.index.rebuilds");
    metrics_.index_prune_ratio =
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
    table_.Reset(dimensions_);
    meta_.clear();
    if (assign_index_ != nullptr) assign_index_->Invalidate();
    pair_cache_.Invalidate();
    last_decay_time_ = now;
    return;
  }
  table_.ScaleAll(factor);
  for (auto& row : meta_) {
    for (auto& [label, weight] : row.labels) weight *= factor;
  }
  // Centroids are scale-invariant in real arithmetic; the index accounts
  // the few-ulp re-derivation wobble per scale event.
  if (assign_index_ != nullptr) assign_index_->NoteScale();
  // The re-derived centroids wobble by ulps, so every cached distance
  // is stale: the next merge rebuilds the pair cache.
  pair_cache_.Invalidate();
  last_decay_time_ = now;
  // The per-row form of the guard above: a row under 2^-511 would
  // overflow 1/n^2 in the table's derived rows (NaN in the padding
  // lanes, which wins every scan), so it is retired as an eviction.
  const double floor = std::sqrt(std::numeric_limits<double>::min());
  for (std::size_t i = table_.rows(); i-- > 0;) {
    if (table_.weight(i) < floor) EvictRow(i);
  }
}

void UMicro::RemoveRow(std::size_t i) {
  table_.RemoveRow(i);
  meta_.erase(meta_.begin() + static_cast<std::ptrdiff_t>(i));
  pair_cache_.NoteRemove(i);
  // Row ids shifted: the index snapshot is stale, rebuild lazily.
  if (assign_index_ != nullptr) assign_index_->Invalidate();
}

void UMicro::EvictRow(std::size_t i) {
  RemoveRow(i);
  ++clusters_evicted_;
  if (metrics_.evicted != nullptr) metrics_.evicted->Increment();
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
      if (table_.rows() == 0 ||
          points_processed_ % options_.variance_refresh_interval != 0) {
        return;
      }
      // Sum every micro-cluster's CF vectors into one global feature
      // vector and apply the BIRCH variance formula (the paper's recipe).
      std::vector<double> cf1(dimensions_, 0.0);
      std::vector<double> cf2(dimensions_, 0.0);
      double weight = 0.0;
      for (std::size_t i = 0; i < table_.rows(); ++i) {
        for (std::size_t j = 0; j < dimensions_; ++j) {
          cf1[j] += table_.cf1_row(i)[j];
          cf2[j] += table_.cf2_row(i)[j];
        }
        weight += table_.weight(i);
      }
      for (std::size_t j = 0; j < dimensions_; ++j) {
        global_variances_[j] = VarianceAt(cf1[j], cf2[j], weight);
      }
      break;
    }
  }
  for (std::size_t j = 0; j < dimensions_; ++j) {
    const double scaled = options_.dimension_threshold * global_variances_[j];
    scaled_inverse_variances_[j] = scaled > 0.0 ? 1.0 / scaled : 0.0;
  }
}

std::size_t UMicro::FindClosest(const stream::UncertainPoint& point,
                                const double* errors) const {
  UMICRO_DCHECK(table_.rows() > 0);
  const std::size_t q = table_.rows();
  const bool counting =
      options_.similarity == SimilarityMode::kDimensionCounting;
  const bool paper_form =
      options_.distance_form == DistanceForm::kPaperExpected;
  const kernels::Backend backend = table_.backend();

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
      assign_index_->Collect(table_, point_ctx_.x.data(),
                             /*include_cluster_error=*/paper_form,
                             paper_form ? point_ctx_.psi2_sum : 0.0,
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
  const double n = table_.weight(index);
  const double* cf1 = table_.cf1_row(index);
  if (n >= 2.0) {
    const double own_radius =
        options_.boundary_factor *
        std::sqrt(UncertainRadiusSquared(cf1, table_.cf2_row(index),
                                         table_.ef2_row(index), n,
                                         dimensions_));
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
  // Divides this cluster's centroid out once, then measures it against
  // every other row as a point.
  double nearest = 0.0;
  if (table_.rows() > 1) {
    double nearest_d2 = std::numeric_limits<double>::infinity();
    boundary_scratch_.resize(dimensions_);
    for (std::size_t j = 0; j < dimensions_; ++j) {
      boundary_scratch_[j] = cf1[j] / n;
    }
    for (std::size_t i = 0; i < table_.rows(); ++i) {
      if (i == index) continue;
      nearest_d2 = std::min(
          nearest_d2,
          GeometricSquaredDistance(boundary_scratch_.data(), table_.cf1_row(i),
                                   table_.weight(i), dimensions_));
    }
    nearest = 0.5 * std::sqrt(nearest_d2);
  }
  return nearest;
}

bool UMicro::ShouldAbsorb(const stream::UncertainPoint& point,
                          std::size_t index, double expected_distance) const {
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
  return std::sqrt(GeometricSquaredDistance(
             point.values.data(), table_.cf1_row(index),
             table_.weight(index), dimensions_)) <= boundary;
}

void UMicro::Process(const stream::UncertainPoint& point) {
  ProcessAndExplain(point);
}

void UMicro::ProcessBatch(std::span<const stream::UncertainPoint> points) {
  if (points.empty()) return;
  const obs::ScopedTimer timer(metrics_.batch_micros);
  BatchCounters counters;
  for (const auto& point : points) ProcessOne(point, &counters);
  FlushCounters(counters, points.size());
}

UMicro::ProcessOutcome UMicro::ProcessAndExplain(
    const stream::UncertainPoint& point) {
  const obs::ScopedTimer timer(metrics_.process_micros);
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
  if (table_.rows() > 0) {
    // One similarity-kernel scan per live cluster: the per-point cost of
    // the expected-distance kernel, in units of cluster comparisons.
    counters->scans += table_.rows();
    const std::size_t closest = FindClosest(point, errors);
    outcome.expected_distance = std::sqrt(ExpectedSquaredDistance(
        point.values.data(), errors, table_.cf1_row(closest),
        table_.ef2_row(closest), table_.weight(closest), dimensions_));
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
        assign_index_->NoteDrift(
            closest, std::sqrt(d2) / (table_.weight(closest) + 1.0));
      }
      table_.AddPoint(closest, point.values.data(), errors, 1.0);
      meta_[closest].Absorb(point);
      pair_cache_.NoteChanged(closest);
      outcome.absorbed = true;
      outcome.cluster_id = meta_[closest].id;
      ++counters->absorbed;
      return outcome;
    }
  }

  table_.PushPointRow(point.values.data(), errors, 1.0);
  meta_.push_back({next_cluster_id_++, point.timestamp, 0.0, {}});
  meta_.back().Absorb(point);
  if (assign_index_ != nullptr) assign_index_->NoteAppend();
  pair_cache_.NoteAppend();
  ++clusters_created_;
  ++counters->created;
  outcome.cluster_id = meta_.back().id;
  if (table_.rows() > options_.num_micro_clusters) {
    RetireOneCluster(point.timestamp);
  }
  return outcome;
}

void UMicro::FlushCounters(const BatchCounters& counters,
                           std::size_t points) {
  const auto add = [](obs::Counter* counter, std::uint64_t n) {
    if (counter != nullptr && n > 0) counter->Increment(n);
  };
  add(metrics_.points, points);
  add(metrics_.kernel_scans, counters.scans);
  add(metrics_.absorbed, counters.absorbed);
  add(metrics_.created, counters.created);
  if (metrics_.live_clusters != nullptr && counters.created > 0) {
    metrics_.live_clusters->Set(static_cast<double>(table_.rows()));
  }
  // The pair cache's scan count is monotone too: ship its growth.
  add(metrics_.pair_rows_scanned,
      pair_cache_.rows_scanned() - flushed_pair_rows_scanned_);
  flushed_pair_rows_scanned_ = pair_cache_.rows_scanned();
  if (assign_index_ != nullptr && metrics_.index_queries != nullptr) {
    // Ship the monotone index counters' growth since the last flush.
    const index::IndexStats& stats = assign_index_->stats();
    const index::IndexStats& shipped = flushed_index_stats_;
    add(metrics_.index_queries, stats.queries - shipped.queries);
    add(metrics_.index_candidates, stats.candidates - shipped.candidates);
    add(metrics_.index_rebuilds, stats.rebuilds - shipped.rebuilds);
    if (stats.scanned_rows > 0) {
      metrics_.index_prune_ratio->Set(
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
  for (std::size_t i = 1; i < meta_.size(); ++i) {
    if (meta_[i].last_update_time < meta_[lru].last_update_time) lru = i;
  }
  if (meta_[lru].last_update_time < now - options_.eviction_horizon) {
    EvictRow(lru);
    return;
  }

  // Closest pair over the table's centroid rows: the cache repairs the
  // rows that moved since the last merge (or rebuilds with the blocked
  // all-pairs kernel) and returns the pair that kernel would.
  std::size_t best_a = 0;
  std::size_t best_b = 1;
  double best_d2 = std::numeric_limits<double>::infinity();
  {
    const obs::ScopedTimer pair_timer(metrics_.closest_pair_micros);
    pair_cache_.Find(table_, table_.backend(), &best_a, &best_b, &best_d2);
  }
  RowMeta& into = meta_[best_a];
  RowMeta& from = meta_[best_b];
  // The merged cluster continues under the heavier constituent's
  // identity; the lighter id disappears, which horizon subtraction
  // treats as a removed cluster (documented approximation).
  if (table_.weight(best_b) > table_.weight(best_a)) {
    std::swap(into.id, from.id);
    std::swap(into.creation_time, from.creation_time);
  }
  into.creation_time = std::min(into.creation_time, from.creation_time);
  into.last_update_time =
      std::max(into.last_update_time, from.last_update_time);
  for (const auto& [label, weight] : from.labels) {
    into.labels[label] += weight;
  }
  table_.MergeRows(best_a, best_b);
  pair_cache_.NoteChanged(best_a);
  RemoveRow(best_b);
  ++clusters_merged_;
  if (metrics_.merged != nullptr) metrics_.merged->Increment();
}

std::vector<MicroCluster> UMicro::clusters() const {
  const std::size_t d = dimensions_;
  std::vector<MicroCluster> clusters(meta_.size());
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    clusters[i].id = meta_[i].id;
    clusters[i].creation_time = meta_[i].creation_time;
    clusters[i].ecf = ErrorClusterFeature::FromRaw(
        {table_.cf1_row(i), table_.cf1_row(i) + d},
        {table_.cf2_row(i), table_.cf2_row(i) + d},
        {table_.ef2_row(i), table_.ef2_row(i) + d}, table_.weight(i),
        meta_[i].last_update_time);
    clusters[i].labels = meta_[i].labels;
  }
  return clusters;
}

UMicroState UMicro::ExportState() const {
  UMicroState state;
  state.clusters = {TakeSnapshot(0.0), ClusterLabelHistograms()};
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
  // Raw copies of the records, so the restored rows are the exported
  // ones bit for bit.
  const Snapshot& frame = state.clusters.frame;
  UMICRO_CHECK(frame.empty() || frame.dims() == dimensions_);
  UMICRO_CHECK(state.clusters.labels.size() == frame.size());
  table_.Reset(dimensions_);
  table_.Reserve(frame.size());
  meta_.clear();
  meta_.reserve(frame.size());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    table_.PushRow(frame.cf1(i), frame.cf2(i), frame.ef2(i), frame.weight(i));
    meta_.push_back({frame.id(i), frame.creation_time(i),
                     frame.last_update_time(i), state.clusters.labels[i]});
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
  histograms.reserve(meta_.size());
  for (const auto& row : meta_) histograms.push_back(row.labels);
  return histograms;
}

std::vector<std::vector<double>> UMicro::ClusterCentroids() const {
  std::vector<std::vector<double>> centroids(table_.rows());
  for (std::size_t i = 0; i < table_.rows(); ++i) {
    centroids[i] = Centroid(table_.cf1_row(i), table_.weight(i), dimensions_);
  }
  return centroids;
}

Snapshot UMicro::TakeSnapshot(double time) const {
  Snapshot snapshot(time, dimensions_, meta_.size());
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    snapshot.Append(meta_[i].id, meta_[i].creation_time, table_.weight(i),
                    meta_[i].last_update_time, table_.cf1_row(i),
                    table_.cf2_row(i), table_.ef2_row(i));
  }
  return snapshot;
}

}  // namespace umicro::core
