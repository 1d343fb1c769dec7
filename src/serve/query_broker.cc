#include "serve/query_broker.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "obs/scoped_timer.h"
#include "util/check.h"

namespace umicro::serve {

namespace {

/// Squared Euclidean distance from `probe` to the centroid of record `i`
/// (cf1[j] / n per coordinate, as ErrorClusterFeature::CentroidAt).
double SquaredDistanceToCentroid(const std::vector<double>& probe,
                                 const core::Snapshot& frame, std::size_t i) {
  const double* cf1 = frame.cf1(i);
  const double weight = frame.weight(i);
  double dist2 = 0.0;
  for (std::size_t j = 0; j < probe.size(); ++j) {
    const double delta = probe[j] - cf1[j] / weight;
    dist2 += delta * delta;
  }
  return dist2;
}

}  // namespace

QueryBroker::QueryBroker(ReplicaResolver resolver, QueryBrokerOptions options,
                         obs::MetricsRegistry* metrics)
    : resolver_(std::move(resolver)),
      options_(options),
      metrics_(metrics),
      queue_(options_.max_queue, parallel::BackpressurePolicy::kBlock) {
  UMICRO_CHECK(resolver_ != nullptr);
  UMICRO_CHECK(options_.num_threads >= 1);
  if (metrics_ != nullptr) {
    queries_ = &metrics_->GetCounter("serve.queries");
    errors_ = &metrics_->GetCounter("serve.errors");
    query_micros_ = &metrics_->GetHistogram("serve.query_micros");
    parallel::QueueMetricsHooks hooks;
    hooks.depth = &metrics_->GetGauge("serve.queue_depth");
    hooks.high_water = &metrics_->GetGauge("serve.queue_depth_peak");
    queue_.SetMetricsHooks(hooks);
  }
  workers_.reserve(options_.num_threads);
  for (std::size_t i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryBroker::QueryBroker(const SnapshotReadReplica* replica,
                         QueryBrokerOptions options,
                         obs::MetricsRegistry* metrics)
    : QueryBroker(
          [replica](std::uint64_t tenant) {
            // Non-owning alias: the shim keeps the old lifetime contract
            // (caller guarantees the replica outlives the broker).
            return tenant == 0
                       ? std::shared_ptr<const SnapshotReadReplica>(
                             std::shared_ptr<const SnapshotReadReplica>(),
                             replica)
                       : std::shared_ptr<const SnapshotReadReplica>();
          },
          options, metrics) {
  UMICRO_CHECK(replica != nullptr);
  multi_tenant_ = false;
}

QueryBroker::~QueryBroker() {
  queue_.Close();
  for (auto& worker : workers_) worker.join();
}

std::future<QueryResponse> QueryBroker::Submit(QueryRequest request) {
  PendingQuery pending{std::move(request), std::promise<QueryResponse>()};
  std::future<QueryResponse> future = pending.promise->get_future();
  if (!queue_.Push(std::move(pending))) {
    pending.promise->set_value(
        {false, "broker shutting down", 0, {}, {}, false, 0.0, {}});
  }
  return future;
}

void QueryBroker::WorkerLoop() {
  PendingQuery pending;
  while (queue_.Pop(&pending)) {
    pending.promise->set_value(Execute(pending.request));
  }
}

std::size_t QueryBroker::queue_depth() const { return queue_.size(); }

QueryResponse QueryBroker::Execute(const QueryRequest& request) const {
  const obs::ScopedTimer timer(query_micros_);
  if (queries_ != nullptr) {
    queries_->Increment();
  } else {
    served_fallback_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::shared_ptr<const SnapshotReadReplica> replica =
      resolver_(request.tenant);
  if (replica == nullptr) {
    QueryResponse response;
    response.error = "unknown tenant";
    if (errors_ != nullptr) errors_->Increment();
    return response;
  }
  const std::shared_ptr<const ReplicaState> state = replica->Acquire();
  QueryResponse response;
  switch (request.kind) {
    case QueryRequest::Kind::kClusterRecent:
      response = ExecuteClusterRecent(request, *replica, *state);
      break;
    case QueryRequest::Kind::kNearest:
      response = ExecuteNearest(request, *state);
      break;
    case QueryRequest::Kind::kAnomaly:
      response = ExecuteAnomaly(request, *state);
      break;
    case QueryRequest::Kind::kStats:
      response = ExecuteStats(*state);
      break;
  }
  if (!response.ok && errors_ != nullptr) errors_->Increment();
  return response;
}

QueryResponse QueryBroker::ExecuteClusterRecent(
    const QueryRequest& request, const SnapshotReadReplica& replica,
    const ReplicaState& state) const {
  QueryResponse response;
  response.publish_seq = state.publish_seq;
  if (!core::ValidHorizon(request.horizon)) {
    response.error = "horizon must be positive";
    return response;
  }
  response.ok = true;
  if (state.current == nullptr) return response;  // nothing published yet
  const auto find = [&state](double target, core::FramePick pick) {
    return state.Find(target, pick);
  };
  core::MacroClusteringOptions macro = options_.macro;
  if (request.k > 0) macro.k = request.k;
  response.clustering =
      core::ClusterOverHorizon(find, *state.current, request.horizon, macro,
                               metrics_, replica.decay_lambda());
  return response;
}

QueryResponse QueryBroker::ExecuteNearest(const QueryRequest& request,
                                          const ReplicaState& state) const {
  QueryResponse response;
  response.publish_seq = state.publish_seq;
  const core::Snapshot* current = state.current.get();
  if (current != nullptr && !current->empty() &&
      request.values.size() != current->dims()) {
    response.error = "probe dimensionality mismatch";
    return response;
  }
  response.ok = true;
  if (current == nullptr) return response;
  std::optional<std::size_t> found;
  NearestResult best;
  for (std::size_t i = 0; i < current->size(); ++i) {
    const double weight = current->weight(i);
    if (weight <= 0.0) continue;
    const double dist2 = SquaredDistanceToCentroid(request.values, *current, i);
    if (!found.has_value() || dist2 < best.distance) {
      best.cluster_id = current->id(i);
      best.distance = dist2;
      best.weight = weight;
      found = i;
    }
  }
  if (found.has_value()) {
    best.distance = std::sqrt(best.distance);
    best.centroid =
        core::Centroid(current->cf1(*found), best.weight, current->dims());
    response.nearest = std::move(best);
  }
  return response;
}

QueryResponse QueryBroker::ExecuteAnomaly(const QueryRequest& request,
                                          const ReplicaState& state) const {
  QueryResponse response = ExecuteNearest(request, state);
  if (!response.ok || !response.nearest.has_value()) return response;
  // Figure 1's novelty rule against the published state: a probe is
  // anomalous when no cluster could absorb it, i.e. it sits beyond
  // t standard deviations of the uncertain radius of every mature
  // cluster. A (near-)singleton's radius is uninformative (zero), so
  // singletons never vouch for a probe; before any mature cluster
  // exists everything reads as novel, matching the algorithm's
  // cold-start behaviour.
  response.anomalous = true;
  response.boundary = 0.0;
  const core::Snapshot& current = *state.current;
  for (std::size_t i = 0; i < current.size(); ++i) {
    const double weight = current.weight(i);
    if (weight < 2.0) continue;
    const double dist2 = SquaredDistanceToCentroid(request.values, current, i);
    const double boundary =
        options_.boundary_factor *
        std::sqrt(core::UncertainRadiusSquared(current.cf1(i), current.cf2(i),
                                               current.ef2(i), weight,
                                               current.dims()));
    if (current.id(i) == response.nearest->cluster_id ||
        boundary > response.boundary) {
      response.boundary = boundary;
    }
    if (std::sqrt(dist2) <= boundary) {
      response.anomalous = false;
      response.boundary = boundary;
      break;
    }
  }
  return response;
}

QueryResponse QueryBroker::ExecuteStats(const ReplicaState& state) const {
  QueryResponse response;
  response.ok = true;
  response.publish_seq = state.publish_seq;
  ServeStats stats;
  stats.publish_seq = state.publish_seq;
  stats.published_time =
      state.current != nullptr ? state.current->time : 0.0;
  stats.live_clusters =
      state.current != nullptr ? state.current->size() : 0;
  stats.snapshots_retained = state.history.size();
  stats.queries_served = queries_served();
  stats.queue_depth = queue_depth();
  response.stats = stats;
  return response;
}

}  // namespace umicro::serve
