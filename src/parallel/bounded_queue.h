// The queue and the drain barrier of every worker pool: the sharded
// ingest pipeline, the tenant fleet and the query broker.
//
// BoundedQueue is a fixed-capacity FIFO with a configurable reaction to
// overflow (backpressure policy): block the producer until space frees
// up, shed the oldest queued item, or reject the incoming one. Drops are
// counted through the metric hooks so load-shedding is observable, and
// on drop-oldest the displaced item is handed back to the producer so
// upstream accounting (in-flight point counts) stays exact.
//
// InFlight counts work handed to a pool and not yet finished; Wait() is
// the barrier a coordinator takes before a merge or a read.
//
// Both are safe for multiple producers and multiple consumers.

#ifndef UMICRO_PARALLEL_BOUNDED_QUEUE_H_
#define UMICRO_PARALLEL_BOUNDED_QUEUE_H_

#include <atomic>
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
/// pointers may be null (that probe is then skipped).
struct QueueMetricsHooks {
  /// Incremented per accepted Push.
  obs::Counter* enqueued = nullptr;
  /// Incremented per shed item: evicted under kDropOldest, rejected
  /// under kDropNewest, or rejected because the queue was (or became)
  /// closed -- including kBlock producers woken mid-wait by Close().
  /// Each shed item is counted exactly once.
  obs::Counter* dropped = nullptr;
  /// Raised to the highest occupancy observed (in queued items).
  obs::Gauge* high_water = nullptr;
  /// Set to the occupancy after every Push and Pop, under the queue lock.
  obs::Gauge* depth = nullptr;
  /// Full Push latency, including any kBlock backpressure stall --
  /// the queue-pressure signal.
  obs::Histogram* enqueue_micros = nullptr;
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
  /// (kDropNewest overflow, or the queue is closed); `value` is then
  /// left untouched. When `displaced` is non-null and kDropOldest
  /// evicted an item, the evicted item is moved into it; otherwise it is
  /// reset.
  bool Push(T&& value, std::optional<T>* displaced = nullptr) {
    const obs::ScopedTimer timer(hooks_.enqueue_micros);
    std::unique_lock<std::mutex> lock(mu_);
    if (displaced != nullptr) displaced->reset();
    if (closed_) return DropLocked();
    if (count_ == capacity_) {
      switch (policy_) {
        case BackpressurePolicy::kBlock:
          not_full_.wait(lock,
                         [this] { return count_ < capacity_ || closed_; });
          if (closed_) return DropLocked();
          break;
        case BackpressurePolicy::kDropOldest: {
          T oldest = std::move(slots_[head_]);
          head_ = (head_ + 1) % capacity_;
          --count_;
          DropLocked();
          if (displaced != nullptr) *displaced = std::move(oldest);
          break;
        }
        case BackpressurePolicy::kDropNewest:
          return DropLocked();
      }
    }
    slots_[(head_ + count_) % capacity_] = std::move(value);
    ++count_;
    if (hooks_.enqueued != nullptr) hooks_.enqueued->Increment();
    if (hooks_.high_water != nullptr) {
      hooks_.high_water->SetMax(static_cast<double>(count_));
    }
    SetDepthLocked();
    not_empty_.notify_one();
    return true;
  }

  /// Dequeues into `*out`, blocking while the queue is empty and open.
  /// Returns false only when the queue is closed and drained.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return count_ > 0 || closed_; });
    if (count_ == 0) return false;
    *out = std::move(slots_[head_]);
    head_ = (head_ + 1) % capacity_;
    --count_;
    SetDepthLocked();
    not_full_.notify_one();
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

  /// Current occupancy.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

  /// Fixed capacity.
  std::size_t capacity() const { return capacity_; }

  /// Attaches registry-backed probes. Call before any concurrent use
  /// (the hooks are copied without synchronization); pass {} to detach.
  void SetMetricsHooks(const QueueMetricsHooks& hooks) { hooks_ = hooks; }

 private:
  /// Counts one shed item (mu_ held) and returns false, Push's answer
  /// for a rejected item.
  bool DropLocked() {
    if (hooks_.dropped != nullptr) hooks_.dropped->Increment();
    return false;
  }

  void SetDepthLocked() {
    if (hooks_.depth != nullptr) {
      hooks_.depth->Set(static_cast<double>(count_));
    }
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
};

/// Work handed to a worker pool and not yet finished, in whatever unit
/// the pool counts (points, batches). Add before handing work over,
/// Done when it is finished or dropped; Wait blocks until the count is
/// zero. The count is one atomic; only the Done that reaches zero takes
/// the lock, to wake the waiters.
class InFlight {
 public:
  void Add(std::size_t n) { count_.fetch_add(n, std::memory_order_acq_rel); }

  void Done(std::size_t n) {
    if (count_.fetch_sub(n, std::memory_order_acq_rel) == n) {
      std::lock_guard<std::mutex> lock(mu_);
      zero_.notify_all();
    }
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    zero_.wait(lock, [this] {
      return count_.load(std::memory_order_acquire) == 0;
    });
  }

 private:
  std::atomic<std::size_t> count_{0};
  std::mutex mu_;
  std::condition_variable zero_;
};

}  // namespace umicro::parallel

#endif  // UMICRO_PARALLEL_BOUNDED_QUEUE_H_
