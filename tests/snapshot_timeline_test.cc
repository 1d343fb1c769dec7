// The pyramidal snapshot timeline under both engines.
//
// The sequential UMicroEngine and the sharded ParallelUMicroEngine run
// the same core::SnapshotTimeline; only the frame producer differs. Over
// one stream and one SnapshotPolicy, a 1-shard sharded engine must
// therefore publish exactly the sequential engine's (tick, time)
// sequence to a snapshot sink -- attach-time priming, cadence snapshots
// and Flush's current view alike -- and end on the same stream clock.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "parallel/parallel_engine.h"
#include "stream/point.h"
#include "util/random.h"

namespace umicro {
namespace {

using stream::UncertainPoint;

/// One sink publication; `current` marks PublishCurrent (tick is then
/// 0).
struct Publication {
  bool current = false;
  std::uint64_t tick = 0;
  double time = 0.0;
  bool operator==(const Publication&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Publication& p) {
  return out << (p.current ? "current" : "snapshot") << "(tick=" << p.tick
             << ", time=" << p.time << ")";
}

class RecordingSink : public core::SnapshotSink {
 public:
  void PublishSnapshot(std::uint64_t tick,
                       std::shared_ptr<const core::Snapshot> frame) override {
    log.push_back({false, tick, frame->time});
  }
  void PublishCurrent(std::shared_ptr<const core::Snapshot> frame) override {
    log.push_back({true, 0, frame->time});
  }

  std::vector<Publication> log;
};

/// Two drifting blobs; every 7th point arrives 30 time units late, so
/// the clock's no-rewind rule is exercised too.
std::vector<UncertainPoint> Stream(std::size_t n) {
  util::Rng rng(29);
  std::vector<UncertainPoint> points;
  for (std::size_t i = 0; i < n; ++i) {
    const double shift = (i % 2 == 0 ? 0.0 : 10.0) + 0.002 * i;
    const double time = i % 7 == 6 ? i - 30.0 : static_cast<double>(i);
    points.emplace_back(
        std::vector<double>{shift + rng.Gaussian(0.0, 0.5),
                            rng.Gaussian(0.0, 0.5)},
        std::vector<double>{0.1, 0.1}, time, static_cast<int>(i % 2));
  }
  return points;
}

/// Ingests in batches and point by point around a mid-stream attach and
/// two flushes; returns what the sink saw.
std::vector<Publication> Drive(core::ClusteringEngine& engine,
                               std::span<const UncertainPoint> points) {
  RecordingSink sink;
  engine.ProcessBatch(points.first(700));
  engine.AttachSnapshotSink(&sink);  // primes every retained frame
  for (const auto& point : points.subspan(700, 600)) engine.Process(point);
  engine.Flush();
  engine.ProcessBatch(points.subspan(1300));
  engine.Flush();
  engine.AttachSnapshotSink(nullptr);
  return sink.log;
}

TEST(SnapshotTimelineTest, BothEnginesPublishTheSameTimeline) {
  core::EngineConfig config;
  config.umicro.num_micro_clusters = 12;
  config.snapshot.snapshot_every = 50;
  config.snapshot.pyramid_alpha = 2;
  config.snapshot.pyramid_l = 2;
  config.parallel.threads = 1;
  config.parallel.merge_every = 0;
  core::UMicroEngine sequential(2, config);
  parallel::ParallelUMicroEngine sharded(
      2, parallel::ParallelEngineOptions::FromConfig(config));

  const std::vector<UncertainPoint> points = Stream(2000);
  const std::vector<Publication> expected = Drive(sequential, points);
  const std::vector<Publication> actual = Drive(sharded, points);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(actual, expected);

  const core::EngineState a = sequential.ExportEngineState();
  const core::EngineState b = sharded.ExportEngineState();
  EXPECT_EQ(b.next_tick, a.next_tick);
  EXPECT_EQ(b.since_snapshot, a.since_snapshot);
  EXPECT_EQ(b.last_timestamp, a.last_timestamp);
  EXPECT_EQ(sharded.store().TotalStored(), sequential.store().TotalStored());
  EXPECT_EQ(sharded.metrics().GetCounter("snapshot.taken").value(),
            sequential.metrics().GetCounter("snapshot.taken").value());
}

}  // namespace
}  // namespace umicro
