// Bounded ring-buffer queue for the sharded ingest pipeline.
//
// A fixed-capacity FIFO with a configurable reaction to overflow
// (backpressure policy): block the producer until space frees up, shed
// the oldest queued item, or reject the incoming one. Drops are counted
// so load-shedding is observable, and on drop-oldest the displaced item
// is handed back to the producer so upstream accounting (in-flight point
// counts) stays exact.
//
// Safe for multiple producers and multiple consumers (mutex + condition
// variables); the sharded engine uses it SPSC — one coordinator thread
// feeding one worker per shard.

#ifndef UMICRO_PARALLEL_BOUNDED_QUEUE_H_
#define UMICRO_PARALLEL_BOUNDED_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/config.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "util/check.h"

namespace umicro::parallel {

/// What Push does when the queue is full (defined once in core so
/// EngineConfig can carry it).
using BackpressurePolicy = core::BackpressurePolicy;

/// Optional registry-backed observability hooks of one queue. All
/// pointers may be null (that probe is then skipped); the queue keeps its
/// internal counters either way.
struct QueueMetricsHooks {
  /// Incremented per accepted Push.
  obs::Counter* enqueued = nullptr;
  /// Incremented per shed item (both drop policies).
  obs::Counter* dropped = nullptr;
  /// Raised to the highest occupancy observed (in queued items).
  obs::Gauge* high_water = nullptr;
  /// Full Push latency, including any kBlock backpressure stall --
  /// the queue-pressure signal.
  obs::Histogram* enqueue_micros = nullptr;
};

/// Point-in-time counters of one queue.
struct QueueStats {
  /// Items accepted into the queue so far.
  std::size_t pushed = 0;
  /// Items handed to consumers so far.
  std::size_t popped = 0;
  /// Items evicted under kDropOldest.
  std::size_t dropped_oldest = 0;
  /// Items rejected under kDropNewest.
  std::size_t dropped_newest = 0;
  /// Items rejected because the queue was (or became) closed -- including
  /// kBlock producers woken mid-wait by Close(). Each rejected Push is
  /// counted exactly once, here and in the `dropped` metric hook.
  std::size_t rejected_closed = 0;
  /// Maximum occupancy ever observed.
  std::size_t high_water = 0;
  /// Current occupancy.
  std::size_t size = 0;
};

/// Bounded FIFO over a pre-allocated ring buffer.
template <typename T>
class BoundedQueue {
 public:
  /// Creates a queue holding at most `capacity` items (>= 1).
  BoundedQueue(std::size_t capacity, BackpressurePolicy policy)
      : capacity_(capacity), policy_(policy), slots_(capacity) {
    UMICRO_CHECK(capacity > 0);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues `value`. Returns false when the item was not accepted
  /// (kDropNewest overflow, or the queue is closed). When `displaced` is
  /// non-null and kDropOldest evicted an item, the evicted item is moved
  /// into it; otherwise it is reset.
  bool Push(T value, std::optional<T>* displaced = nullptr) {
    const obs::ScopedTimer timer(hooks_.enqueue_micros);
    std::unique_lock<std::mutex> lock(mu_);
    if (displaced != nullptr) displaced->reset();
    if (closed_) return RejectClosedLocked();
    if (count_ == capacity_) {
      switch (policy_) {
        case BackpressurePolicy::kBlock:
          not_full_.wait(lock,
                         [this] { return count_ < capacity_ || closed_; });
          if (closed_) return RejectClosedLocked();
          break;
        case BackpressurePolicy::kDropOldest: {
          T oldest = std::move(slots_[head_]);
          head_ = (head_ + 1) % capacity_;
          --count_;
          ++dropped_oldest_;
          if (hooks_.dropped != nullptr) hooks_.dropped->Increment();
          if (displaced != nullptr) *displaced = std::move(oldest);
          break;
        }
        case BackpressurePolicy::kDropNewest:
          ++dropped_newest_;
          if (hooks_.dropped != nullptr) hooks_.dropped->Increment();
          return false;
      }
    }
    slots_[(head_ + count_) % capacity_] = std::move(value);
    ++count_;
    ++pushed_;
    high_water_ = std::max(high_water_, count_);
    if (hooks_.enqueued != nullptr) hooks_.enqueued->Increment();
    if (hooks_.high_water != nullptr) {
      hooks_.high_water->SetMax(static_cast<double>(count_));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Dequeues into `*out`, blocking while the queue is empty and open.
  /// Returns false only when the queue is closed and drained.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return count_ > 0 || closed_; });
    if (count_ == 0) return false;
    PopLocked(out);
    return true;
  }

  /// Non-blocking dequeue; false when the queue is currently empty.
  bool TryPop(T* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ == 0) return false;
    PopLocked(out);
    return true;
  }

  /// Closes the queue: pending Push/Pop calls wake up, further pushes are
  /// rejected, queued items remain poppable until drained.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// True once Close() has been called.
  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Current occupancy.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

  /// Fixed capacity.
  std::size_t capacity() const { return capacity_; }

  /// Configured overflow policy.
  BackpressurePolicy policy() const { return policy_; }

  /// Attaches registry-backed probes. Call before any concurrent use
  /// (the hooks are copied without synchronization); pass {} to detach.
  void SetMetricsHooks(const QueueMetricsHooks& hooks) { hooks_ = hooks; }

  /// Consistent snapshot of the counters.
  QueueStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    QueueStats stats;
    stats.pushed = pushed_;
    stats.popped = popped_;
    stats.dropped_oldest = dropped_oldest_;
    stats.dropped_newest = dropped_newest_;
    stats.rejected_closed = rejected_closed_;
    stats.high_water = high_water_;
    stats.size = count_;
    return stats;
  }

 private:
  /// Accounts one Push rejected by a closed queue (mu_ held). A producer
  /// that was blocked when Close() arrived and one that pushed after the
  /// close both land here -- and only here -- so every rejected item is
  /// counted exactly once.
  bool RejectClosedLocked() {
    ++rejected_closed_;
    if (hooks_.dropped != nullptr) hooks_.dropped->Increment();
    return false;
  }

  void PopLocked(T* out) {
    *out = std::move(slots_[head_]);
    head_ = (head_ + 1) % capacity_;
    --count_;
    ++popped_;
    not_full_.notify_one();
  }

  const std::size_t capacity_;
  const BackpressurePolicy policy_;
  QueueMetricsHooks hooks_;

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  bool closed_ = false;
  std::size_t pushed_ = 0;
  std::size_t popped_ = 0;
  std::size_t dropped_oldest_ = 0;
  std::size_t dropped_newest_ = 0;
  std::size_t rejected_closed_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace umicro::parallel

#endif  // UMICRO_PARALLEL_BOUNDED_QUEUE_H_
