// Tests for the bounded backpressure queue and the in-flight drain
// barrier shared by the worker pools. Queue counts are read through the
// metric hooks, attached to a registry per test.

#include "parallel/bounded_queue.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace umicro::parallel {
namespace {

/// Every hook of a queue, backed by `registry`.
QueueMetricsHooks Hooks(obs::MetricsRegistry& registry) {
  QueueMetricsHooks hooks;
  hooks.enqueued = &registry.GetCounter("enqueued");
  hooks.dropped = &registry.GetCounter("dropped");
  hooks.high_water = &registry.GetGauge("high_water");
  hooks.depth = &registry.GetGauge("depth");
  hooks.enqueue_micros = &registry.GetHistogram("enqueue_micros");
  return hooks;
}

std::uint64_t Count(obs::MetricsRegistry& registry, const std::string& name) {
  return registry.GetCounter(name).value();
}

double Level(obs::MetricsRegistry& registry, const std::string& name) {
  return registry.GetGauge(name).value();
}

TEST(BoundedQueueTest, FifoOrderAcrossWraparound) {
  obs::MetricsRegistry registry;
  BoundedQueue<int> queue(4, BackpressurePolicy::kBlock);
  queue.SetMetricsHooks(Hooks(registry));
  // Push/pop more than capacity items so head wraps several times.
  int next_pushed = 0;
  int next_popped = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.Push(next_pushed++));
    EXPECT_EQ(Level(registry, "depth"), 3.0);
    int out = -1;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(queue.Pop(&out));
      EXPECT_EQ(out, next_popped++);
    }
  }
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(Count(registry, "enqueued"), 15u);
  // Every accepted item was popped: 15 successful Pops, nothing left.
  EXPECT_EQ(next_popped, 15);
  EXPECT_EQ(Level(registry, "depth"), 0.0);
  EXPECT_EQ(registry.GetHistogram("enqueue_micros").Summarize().count, 15u);
}

TEST(BoundedQueueTest, CapacityIsEnforced) {
  BoundedQueue<int> queue(3, BackpressurePolicy::kDropNewest);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.Push(int{i}));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_FALSE(queue.Push(99));
  EXPECT_EQ(queue.size(), 3u);
}

TEST(BoundedQueueTest, DropOldestEvictsHeadAndReportsIt) {
  obs::MetricsRegistry registry;
  BoundedQueue<int> queue(2, BackpressurePolicy::kDropOldest);
  queue.SetMetricsHooks(Hooks(registry));
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  std::optional<int> displaced;
  ASSERT_TRUE(queue.Push(3, &displaced));
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(*displaced, 1);
  // One drop, and it was the eviction (the incoming item was accepted).
  EXPECT_EQ(Count(registry, "dropped"), 1u);
  EXPECT_EQ(Count(registry, "enqueued"), 3u);
  EXPECT_EQ(Level(registry, "depth"), 2.0);

  int out = -1;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 3);
}

TEST(BoundedQueueTest, DropNewestRejectsAndCounts) {
  obs::MetricsRegistry registry;
  BoundedQueue<int> queue(2, BackpressurePolicy::kDropNewest);
  queue.SetMetricsHooks(Hooks(registry));
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  std::optional<int> displaced;
  EXPECT_FALSE(queue.Push(3, &displaced));
  EXPECT_FALSE(displaced.has_value());
  // One drop, and it was the rejection (nothing queued was evicted).
  EXPECT_EQ(Count(registry, "dropped"), 1u);
  EXPECT_EQ(Count(registry, "enqueued"), 2u);

  int out = -1;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
}

TEST(BoundedQueueTest, HighWaterMarkTracksPeakOccupancy) {
  obs::MetricsRegistry registry;
  BoundedQueue<int> queue(8, BackpressurePolicy::kBlock);
  queue.SetMetricsHooks(Hooks(registry));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.Push(int{i}));
  int out = 0;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.Pop(&out));
  ASSERT_TRUE(queue.Push(42));
  EXPECT_EQ(Level(registry, "high_water"), 5.0);
  EXPECT_EQ(Level(registry, "depth"), 1.0);
}

TEST(BoundedQueueTest, BlockPolicyWaitsForConsumer) {
  obs::MetricsRegistry registry;
  BoundedQueue<int> queue(2, BackpressurePolicy::kBlock);
  queue.SetMetricsHooks(Hooks(registry));
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));

  std::atomic<bool> third_push_done{false};
  std::thread producer([&] {
    ASSERT_TRUE(queue.Push(3));  // must block until the pop below
    third_push_done = true;
  });
  // Give the producer a chance to reach the blocking push. If it did not
  // actually block this is a (benign) race, but the ordering assertions
  // below hold either way.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  int out = -1;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(third_push_done.load());
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 3);
  EXPECT_EQ(Count(registry, "dropped"), 0u);
}

TEST(BoundedQueueTest, CloseUnblocksConsumersAndRejectsProducers) {
  obs::MetricsRegistry registry;
  BoundedQueue<int> queue(2, BackpressurePolicy::kBlock);
  queue.SetMetricsHooks(Hooks(registry));
  std::atomic<bool> pop_returned_false{false};
  std::thread consumer([&] {
    int out = -1;
    pop_returned_false = !queue.Pop(&out);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  consumer.join();
  EXPECT_TRUE(pop_returned_false.load());
  EXPECT_FALSE(queue.Push(1));
  // The queue stays closed: the rejection was counted, and a Pop on the
  // empty queue returns at once.
  EXPECT_EQ(Count(registry, "dropped"), 1u);
  int out = -1;
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(BoundedQueueTest, CloseUnderPressureCountsEachRejectionOnce) {
  // Several producers blocked on a full kBlock queue when Close() lands:
  // every blocked Push must return false and be counted exactly once as
  // dropped, and nothing may be lost or double-counted.
  obs::MetricsRegistry registry;
  BoundedQueue<int> queue(2, BackpressurePolicy::kBlock);
  queue.SetMetricsHooks(Hooks(registry));
  ASSERT_TRUE(queue.Push(0));
  ASSERT_TRUE(queue.Push(1));  // queue now full

  constexpr int kProducers = 4;
  std::atomic<int> rejected{0};
  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int i = 0; i < kProducers; ++i) {
    producers.emplace_back([&queue, &rejected, &accepted, i] {
      if (queue.Push(100 + i)) {
        ++accepted;
      } else {
        ++rejected;
      }
    });
  }
  // Let the producers reach the blocking wait, then close under pressure.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  for (auto& producer : producers) producer.join();

  EXPECT_EQ(accepted.load(), 0);
  EXPECT_EQ(rejected.load(), kProducers);
  // kBlock never evicts or rejects while open, so every drop is a
  // rejection by the closed queue.
  EXPECT_EQ(Count(registry, "dropped"), static_cast<std::uint64_t>(kProducers));
  // A late push on the already-closed queue lands in the same count.
  EXPECT_FALSE(queue.Push(999));
  EXPECT_EQ(Count(registry, "dropped"),
            static_cast<std::uint64_t>(kProducers) + 1);
  // The queued items survived the close and drain in order.
  int out = -1;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 0);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(queue.Pop(&out));
  // Both accepted items were popped (the two Pops above) and no more.
  EXPECT_EQ(Count(registry, "enqueued"), 2u);
  EXPECT_EQ(Level(registry, "depth"), 0.0);
}

TEST(BoundedQueueTest, CloseDrainsQueuedItemsFirst) {
  BoundedQueue<int> queue(4, BackpressurePolicy::kBlock);
  ASSERT_TRUE(queue.Push(7));
  ASSERT_TRUE(queue.Push(8));
  queue.Close();
  int out = -1;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 7);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(BoundedQueueTest, TwoThreadStressDeliversEverythingInOrder) {
  constexpr int kItems = 20000;
  obs::MetricsRegistry registry;
  BoundedQueue<int> queue(64, BackpressurePolicy::kBlock);
  queue.SetMetricsHooks(Hooks(registry));
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(queue.Push(int{i}));
    queue.Close();
  });
  std::int64_t sum = 0;
  int expected = 0;
  int out = -1;
  bool ordered = true;
  while (queue.Pop(&out)) {
    ordered = ordered && (out == expected++);
    sum += out;
  }
  producer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(expected, kItems);
  EXPECT_EQ(sum, static_cast<std::int64_t>(kItems) * (kItems - 1) / 2);
  EXPECT_EQ(Count(registry, "dropped"), 0u);
  EXPECT_EQ(Count(registry, "enqueued"), static_cast<std::uint64_t>(kItems));
}

TEST(BoundedQueueTest, MultiProducerStressLosesNothingUnderBlock) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  BoundedQueue<int> queue(32, BackpressurePolicy::kBlock);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> seen_count(kProducers * kPerProducer, 0);
  std::thread consumer([&] {
    int out = -1;
    for (int i = 0; i < kProducers * kPerProducer; ++i) {
      ASSERT_TRUE(queue.Pop(&out));
      ++seen_count[out];
    }
  });
  for (auto& thread : producers) thread.join();
  consumer.join();
  for (int count : seen_count) EXPECT_EQ(count, 1);
}

TEST(InFlightTest, WaitReturnsOnlyAfterDoneReachesZero) {
  // A producer thread adds work while a consumer thread finishes it, so
  // Add and Done race; after each round the waiter must see every item
  // of that round finished, never an early return.
  constexpr int kRounds = 50;
  constexpr int kItemsPerRound = 40;
  InFlight in_flight;
  in_flight.Wait();  // nothing in flight yet: returns at once
  BoundedQueue<int> queue(8, BackpressurePolicy::kBlock);
  std::atomic<std::uint64_t> finished{0};
  std::thread consumer([&] {
    int weight = 0;
    while (queue.Pop(&weight)) {
      if (weight == 5) std::this_thread::yield();
      finished.fetch_add(static_cast<std::uint64_t>(weight));
      in_flight.Done(static_cast<std::size_t>(weight));
    }
  });
  std::uint64_t added = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::thread producer([&] {
      for (int i = 0; i < kItemsPerRound; ++i) {
        const int weight = 1 + (round + i) % 5;
        in_flight.Add(static_cast<std::size_t>(weight));
        added += static_cast<std::uint64_t>(weight);
        ASSERT_TRUE(queue.Push(int{weight}));
      }
    });
    producer.join();
    in_flight.Wait();
    EXPECT_EQ(finished.load(), added) << "round " << round;
  }
  // One last batch finished by a slow consumer: Wait must block for it.
  in_flight.Add(2);
  std::thread slow([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished.fetch_add(2);
    in_flight.Done(2);
  });
  in_flight.Wait();
  EXPECT_EQ(finished.load(), added + 2);
  slow.join();
  queue.Close();
  consumer.join();
}

}  // namespace
}  // namespace umicro::parallel
