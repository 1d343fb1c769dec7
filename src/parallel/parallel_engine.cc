#include "parallel/parallel_engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "obs/scoped_timer.h"
#include "parallel/shard_merge.h"
#include "util/check.h"
#include "util/failpoints.h"

namespace umicro::parallel {

namespace {

/// Processed batches a shard keeps for the coordinator to refill.
constexpr std::size_t kMaxSpareBatches = 4;

}  // namespace

ParallelEngineOptions ParallelEngineOptions::FromConfig(
    const core::EngineConfig& config) {
  ParallelEngineOptions options;
  options.sharded.umicro = config.umicro;
  options.sharded.num_shards = config.parallel.threads;
  options.sharded.merge_every = config.parallel.merge_every;
  options.sharded.queue_capacity = config.parallel.queue_capacity;
  options.sharded.producer_batch = config.parallel.producer_batch;
  options.sharded.backpressure = config.parallel.backpressure;
  options.sharded.degrade.enabled = config.parallel.degrade;
  options.sharded.supervisor.enabled = config.parallel.degrade;
  options.snapshot = config.snapshot;
  return options;
}

ParallelUMicroEngine::ParallelUMicroEngine(std::size_t dimensions,
                                           ParallelEngineOptions options)
    : dimensions_(dimensions),
      options_(options.sharded),
      global_budget_(options_.global_budget > 0
                         ? options_.global_budget
                         : options_.umicro.num_micro_clusters),
      points_ingested_metric_(
          &metrics_.GetCounter("parallel.points_ingested")),
      points_dropped_metric_(&metrics_.GetCounter("parallel.points_dropped")),
      merges_metric_(&metrics_.GetCounter("parallel.merges")),
      reconcile_metric_(&metrics_.GetCounter("parallel.reconcile_merges")),
      merge_micros_(&metrics_.GetHistogram("parallel.merge_micros")),
      rebuild_micros_(&metrics_.GetHistogram("parallel.rebuild_micros")),
      global_clusters_metric_(&metrics_.GetGauge("parallel.global_clusters")),
      degrade_activations_metric_(
          &metrics_.GetCounter("parallel.degrade.activations")),
      points_shed_metric_(
          &metrics_.GetCounter("parallel.degrade.points_shed")),
      batches_shed_metric_(
          &metrics_.GetCounter("parallel.degrade.batches_shed")),
      degrade_active_gauge_(&metrics_.GetGauge("parallel.degrade.active")),
      worker_restarts_metric_(
          &metrics_.GetCounter("parallel.worker_restarts")),
      shed_rng_(options_.degrade.seed),
      timeline_(options.snapshot) {
  UMICRO_CHECK(options_.num_shards >= 1);
  UMICRO_CHECK(options_.producer_batch >= 1);
  UMICRO_CHECK(options_.queue_capacity >= 1);
  shards_.reserve(options_.num_shards);
  pending_batches_.resize(options_.num_shards);
  pending_fill_.assign(options_.num_shards, 0);
  // One shared enqueue-pressure histogram: only the coordinator pushes,
  // so shard attribution adds nothing the per-shard counters don't give.
  obs::Histogram& enqueue_micros =
      metrics_.GetHistogram("parallel.queue.enqueue_micros");
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(dimensions_, options_));
    pending_batches_[i].reserve(options_.producer_batch);
    Shard& shard = *shards_.back();
    const std::string prefix = "parallel.shard" + std::to_string(i) + ".";
    shard.points_processed = &metrics_.GetCounter(prefix + "points");
    shard.batches_processed = &metrics_.GetCounter(prefix + "batches");
    shard.points_dropped = &metrics_.GetCounter(prefix + "dropped");
    shard.clusters_at_merge = &metrics_.GetGauge(prefix + "clusters");
    QueueMetricsHooks hooks;
    hooks.enqueued = &metrics_.GetCounter(prefix + "queue_batches");
    hooks.high_water = &metrics_.GetGauge(prefix + "queue_high_water");
    hooks.enqueue_micros = &enqueue_micros;
    shard.queue.SetMetricsHooks(hooks);
    // The shard algorithms share the pipeline registry: their "umicro."
    // cells aggregate across workers (atomics, so TSan stays clean).
    shard.algo.AttachMetrics(&metrics_);
  }
  timeline_.AttachMetrics(&metrics_);
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    shards_[i]->worker_alive.store(true, std::memory_order_release);
    shards_[i]->worker = std::thread([this, i] { WorkerLoop(i); });
  }
  if (options_.supervisor.enabled) {
    supervisor_ = std::thread([this] { SupervisorLoop(); });
  }
}

ParallelUMicroEngine::~ParallelUMicroEngine() {
  // Silence the supervisor before closing anything so a worker exiting
  // on queue-close is never mistaken for a death and "restarted".
  stopped_.store(true, std::memory_order_release);
  supervisor_stop_.store(true, std::memory_order_release);
  if (supervisor_.joinable()) supervisor_.join();
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

std::string ParallelUMicroEngine::name() const {
  // The display name the CLI prints for the sharded pipeline.
  return "ShardedUMicro(" + std::to_string(options_.num_shards) + ")";
}

void ParallelUMicroEngine::WorkerLoop(std::size_t index) {
  Shard& shard = *shards_[index];
  const std::string death_name =
      "parallel.worker" + std::to_string(index) + ".death";
  while (shard.queue.Pop(&shard.in_progress_batch)) {
    if (UMICRO_FAILPOINT(death_name) ||
        UMICRO_FAILPOINT("parallel.worker.death")) {
      // Simulated death: exit with the popped batch still sitting in
      // in_progress_batch and its points still counted in in_flight_,
      // exactly the state a real crash would leave. The supervisor
      // applies the batch itself, so no point is lost or double-counted.
      shard.worker_alive.store(false, std::memory_order_release);
      return;
    }
    if (util::FailpointRegistry::Instance().AnyArmed()) {
      const std::size_t stall = util::FailpointRegistry::Instance()
                                    .StallMillis("parallel.worker.stall");
      if (stall > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall));
      }
    }
    const std::size_t n = shard.in_progress_batch.size();
    {
      std::lock_guard<std::mutex> lock(shard.state_mu);
      // One amortized batch-kernel ingest per popped batch (the batch
      // vector is contiguous, so it views directly as a span).
      shard.algo.ProcessBatch(shard.in_progress_batch);
    }
    {
      // Hand the batch back whole: the coordinator overwrites its points
      // in place, so steady-state ingest frees nothing across threads.
      // The coordinator takes one spare per enqueue and outpaces the
      // worker, so a short list covers that reuse; a batch beyond it
      // (the queue draining into a merge, while the coordinator waits)
      // is freed here, which keeps peak memory at one queue's worth.
      std::lock_guard<std::mutex> lock(shard.spare_mu);
      if (shard.spares.size() < kMaxSpareBatches) {
        shard.spares.push_back(std::move(shard.in_progress_batch));
      }
    }
    shard.in_progress_batch.clear();
    shard.points_processed->Increment(n);
    shard.batches_processed->Increment();
    in_flight_.Done(n);
  }
  shard.worker_alive.store(false, std::memory_order_release);
}

void ParallelUMicroEngine::SupervisorLoop() {
  const auto poll = std::chrono::milliseconds(
      std::max<std::size_t>(std::size_t{1}, options_.supervisor.poll_millis));
  while (!supervisor_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(poll);
    if (stopped_.load(std::memory_order_acquire)) continue;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (supervisor_stop_.load(std::memory_order_acquire)) return;
      if (!shards_[i]->worker_alive.load(std::memory_order_acquire)) {
        RestartShard(i);
      }
    }
  }
}

void ParallelUMicroEngine::RestartShard(std::size_t index) {
  Shard& shard = *shards_[index];
  if (shard.worker.joinable()) shard.worker.join();
  // The join ordered the dead worker's writes: its orphaned batch (if
  // any) is safe to take before the replacement starts popping into the
  // same slot.
  std::vector<stream::UncertainPoint> orphaned =
      std::move(shard.in_progress_batch);
  shard.in_progress_batch.clear();
  worker_restarts_metric_->Increment();
  // Apply the orphaned batch here, on the supervisor thread, BEFORE the
  // replacement starts. Re-enqueueing instead can deadlock: if the
  // queue filled while the shard was dead and the replacement dies on
  // its very next pop, the supervisor is stuck in a kBlock Push with no
  // consumer left and can never run another restart. Processing in
  // place never touches the queue, and since the orphan was popped
  // before everything still queued, shard-local order is preserved.
  // The points stay counted in in_flight_ (the dead worker never
  // decremented them), so they are only decremented, never re-added.
  if (!orphaned.empty()) {
    const std::size_t n = orphaned.size();
    {
      std::lock_guard<std::mutex> lock(shard.state_mu);
      shard.algo.ProcessBatch(orphaned);
    }
    shard.points_processed->Increment(n);
    shard.batches_processed->Increment();
    in_flight_.Done(n);
  }
  shard.worker_alive.store(true, std::memory_order_release);
  shard.worker = std::thread([this, index] { WorkerLoop(index); });
}

bool ParallelUMicroEngine::ShouldShedBatch(std::size_t index) {
  const DegradationOptions& degrade = options_.degrade;
  if (!degrade.enabled) return false;
  const double occupancy =
      static_cast<double>(shards_[index]->queue.size()) /
      static_cast<double>(shards_[index]->queue.capacity());
  if (occupancy >= degrade.occupancy_trigger) {
    ++pressured_streak_;
    calm_streak_ = 0;
  } else {
    ++calm_streak_;
    pressured_streak_ = 0;
  }
  if (!degraded_ && pressured_streak_ >= degrade.trigger_after) {
    degraded_ = true;
    degrade_activations_metric_->Increment();
    degrade_active_gauge_->Set(1.0);
  } else if (degraded_ && calm_streak_ >= degrade.recover_after) {
    degraded_ = false;
    degrade_active_gauge_->Set(0.0);
  }
  if (!degraded_) return false;
  return shed_rng_.NextDouble() < degrade.shed_probability;
}

void ParallelUMicroEngine::EnqueueBatch(std::size_t index) {
  std::vector<stream::UncertainPoint>& batch = pending_batches_[index];
  const std::size_t n = pending_fill_[index];
  if (n == 0) return;
  if (ShouldShedBatch(index)) {
    // Shed before the in-flight accounting: a shed batch never enters
    // the pipeline, so drain/exactness bookkeeping is untouched. The
    // buffer stays pending and is refilled from the start.
    batches_shed_metric_->Increment();
    points_shed_metric_->Increment(n);
    shards_[index]->points_dropped->Increment(n);
    points_dropped_metric_->Increment(n);
    pending_fill_[index] = 0;
    return;
  }
  in_flight_.Add(n);
  batch.erase(batch.begin() + static_cast<std::ptrdiff_t>(n), batch.end());
  std::optional<std::vector<stream::UncertainPoint>> displaced;
  const bool accepted = shards_[index]->queue.Push(std::move(batch),
                                                   &displaced);
  if (accepted) view_current_ = false;
  TakeSpareBatch(index);

  std::size_t dropped = 0;
  if (!accepted) {
    dropped = n;
  } else if (displaced.has_value()) {
    dropped = displaced->size();
  }
  if (dropped > 0) {
    shards_[index]->points_dropped->Increment(dropped);
    points_dropped_metric_->Increment(dropped);
    in_flight_.Done(dropped);
  }
}

void ParallelUMicroEngine::TakeSpareBatch(std::size_t index) {
  std::vector<stream::UncertainPoint>& batch = pending_batches_[index];
  batch.clear();
  {
    Shard& shard = *shards_[index];
    std::lock_guard<std::mutex> lock(shard.spare_mu);
    if (!shard.spares.empty()) {
      batch = std::move(shard.spares.back());
      shard.spares.pop_back();
    }
  }
  if (batch.empty()) batch.reserve(options_.producer_batch);
  pending_fill_[index] = 0;
}

void ParallelUMicroEngine::Process(const stream::UncertainPoint& point) {
  UMICRO_CHECK_MSG(point.dimensions() == dimensions_,
                   "point has %zu dimensions, pipeline expects %zu",
                   point.dimensions(), dimensions_);
  const std::size_t shard = next_round_robin_;
  next_round_robin_ = (next_round_robin_ + 1) % options_.num_shards;
  std::vector<stream::UncertainPoint>& batch = pending_batches_[shard];
  std::size_t& fill = pending_fill_[shard];
  // Copy-assign into a recycled element (reusing its vectors' storage)
  // when there is one; append otherwise.
  if (fill < batch.size()) {
    batch[fill] = point;
  } else {
    batch.push_back(point);
  }
  ++fill;
  ++points_ingested_;
  points_ingested_metric_->Increment();
  ++points_since_merge_;
  if (fill >= options_.producer_batch) EnqueueBatch(shard);
  // While degraded, merges (the costliest coordinator work) run at a
  // stretched cadence so the coordinator sheds load too.
  std::size_t effective_merge_every = options_.merge_every;
  if (degraded_) {
    const double stretch = std::max(1.0, options_.degrade.merge_stretch);
    effective_merge_every = static_cast<std::size_t>(
        static_cast<double>(options_.merge_every) * stretch);
  }
  if (effective_merge_every > 0 &&
      points_since_merge_ >= effective_merge_every) {
    MergeNow();
  }
  if (!timeline_.Advance(point.timestamp)) return;
  // The snapshot.take_micros timing includes the drain + rebuild, when
  // no merge_every merge on this point already made the view current.
  timeline_.TakeSnapshot([this](double time) {
    MergeNow();
    global_clusters_.frame.time = time;
    return global_clusters_.frame;
  });
}

void ParallelUMicroEngine::ProcessBatch(
    std::span<const stream::UncertainPoint> points) {
  for (const auto& point : points) Process(point);
}

void ParallelUMicroEngine::RebuildGlobalView() {
  std::vector<core::LabeledFrame> shard_views(shards_.size());
  std::vector<const core::LabeledFrame*> shard_sets(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.state_mu);
    shard.clusters_at_merge->Set(
        static_cast<double>(shard.algo.num_clusters()));
    shard_views[i] = {shard.algo.TakeSnapshot(0.0),
                      shard.algo.ClusterLabelHistograms()};
    shard_sets[i] = &shard_views[i];
  }
  ShardMergeOptions merge_options;
  merge_options.dimensions = dimensions_;
  merge_options.dimension_threshold = options_.umicro.dimension_threshold;
  merge_options.global_budget = global_budget_;
  std::size_t reconciliations = 0;
  global_clusters_ =
      MergeShardClusterSets(shard_sets, merge_options, &reconciliations);
  reconcile_metric_->Increment(reconciliations);
}

void ParallelUMicroEngine::MergeNow() {
  for (std::size_t i = 0; i < shards_.size(); ++i) EnqueueBatch(i);
  points_since_merge_ = 0;
  // Nothing reached a shard since the last rebuild: the view is current.
  if (view_current_) return;
  const obs::ScopedTimer timer(merge_micros_);
  if (util::FailpointRegistry::Instance().AnyArmed()) {
    const std::size_t stall = util::FailpointRegistry::Instance()
                                  .StallMillis("parallel.merge.stall");
    if (stall > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall));
    }
  }
  in_flight_.Wait();
  // Free the leftover spares here, on the thread that allocated them,
  // instead of carrying them across the merge.
  for (auto& shard : shards_) {
    std::vector<std::vector<stream::UncertainPoint>> spares;
    {
      std::lock_guard<std::mutex> lock(shard->spare_mu);
      spares.swap(shard->spares);
    }
  }
  {
    const obs::ScopedTimer rebuild_timer(rebuild_micros_);
    RebuildGlobalView();
  }
  view_current_ = true;
  merges_metric_->Increment();
  global_clusters_metric_->Set(static_cast<double>(global_clusters_.size()));
}

void ParallelUMicroEngine::Flush() {
  MergeNow();
  if (points_ingested_ == 0) return;
  timeline_.PublishCurrent([this](double time) {
    global_clusters_.frame.time = time;
    return global_clusters_.frame;
  });
}

void ParallelUMicroEngine::AttachSnapshotSink(core::SnapshotSink* sink) {
  if (timeline_.AttachSink(sink) && points_ingested_ > 0) Flush();
}

std::optional<core::HorizonClustering> ParallelUMicroEngine::ClusterRecent(
    double horizon, const core::MacroClusteringOptions& options) {
  if (points_ingested_ == 0) return std::nullopt;
  MergeNow();
  global_clusters_.frame.time = timeline_.last_timestamp();
  return timeline_.ClusterRecent(global_clusters_.frame, horizon, options,
                                 options_.umicro.decay_lambda);
}

std::vector<stream::LabelHistogram>
ParallelUMicroEngine::ClusterLabelHistograms() const {
  // Logically read-only (the stream content is untouched) but the merged
  // view must be refreshed; the coordinator-thread contract makes the
  // cast safe.
  const_cast<ParallelUMicroEngine*>(this)->MergeNow();
  return global_clusters_.labels;
}

std::vector<std::vector<double>> ParallelUMicroEngine::ClusterCentroids()
    const {
  const_cast<ParallelUMicroEngine*>(this)->MergeNow();
  // One centroid per record: a merged weight sums live shard weights,
  // which are always positive.
  const core::Snapshot& frame = global_clusters_.frame;
  std::vector<std::vector<double>> centroids(frame.size());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    centroids[i] = core::Centroid(frame.cf1(i), frame.weight(i), dimensions_);
  }
  return centroids;
}

core::EngineState ParallelUMicroEngine::ExportEngineState() {
  // Drain + merge first: afterwards no point is in a queue or a worker,
  // so the shard residuals, the partition cursor and the stream clock
  // determine all future behavior exactly.
  MergeNow();
  core::EngineState state;
  state.engine_kind = "sharded";
  state.dimensions = dimensions_;
  state.shard_states.reserve(shards_.size());
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->state_mu);
    state.shard_states.push_back(shard->algo.ExportState());
  }
  state.points_ingested = points_ingested_;
  state.next_round_robin = next_round_robin_;
  timeline_.ExportState(state);
  state.counters = metrics_.CounterCells();
  state.gauges = metrics_.GaugeCells();
  return state;
}

bool ParallelUMicroEngine::RestoreEngineState(const core::EngineState& state) {
  if (state.engine_kind != "sharded") return false;
  if (state.dimensions != dimensions_) return false;
  // Validate the shard half before the timeline restores its store and
  // clock: a shard-count or dimension mismatch must reject the whole
  // restore before anything is overwritten.
  if (state.shard_states.size() != shards_.size()) return false;
  for (const auto& shard_state : state.shard_states) {
    if (shard_state.welford.size() != dimensions_) return false;
    if (!shard_state.clusters.empty() &&
        shard_state.clusters.frame.dims() != dimensions_) {
      return false;
    }
  }
  if (!timeline_.RestoreState(state)) return false;
  MergeNow();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->state_mu);
    shards_[i]->algo.RestoreState(state.shard_states[i]);
  }
  // The merged view is a function of the shard states: the next merge
  // rebuilds it.
  global_clusters_ = {};
  view_current_ = false;
  points_ingested_ = static_cast<std::size_t>(state.points_ingested);
  next_round_robin_ =
      static_cast<std::size_t>(state.next_round_robin) % options_.num_shards;
  points_since_merge_ = 0;
  metrics_.RestoreCells(state.counters, state.gauges);
  return true;
}

std::size_t ParallelUMicroEngine::worker_restarts() const {
  return static_cast<std::size_t>(worker_restarts_metric_->value());
}

}  // namespace umicro::parallel
