#include "serve/replica.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace umicro::serve {

namespace {

std::size_t CapacityPerOrder(const core::SnapshotPolicy& policy) {
  UMICRO_CHECK(policy.pyramid_alpha >= 2);
  UMICRO_CHECK(policy.pyramid_l >= 1);
  double capacity = 1.0;
  for (std::size_t i = 0; i < policy.pyramid_l; ++i) {
    capacity *= static_cast<double>(policy.pyramid_alpha);
  }
  UMICRO_CHECK_MSG(capacity <= 1e9, "alpha^l too large to retain");
  return static_cast<std::size_t>(capacity) + 1;
}

/// (time, tick) order, as SnapshotStore: frames of equal time (coarse
/// input timestamps) resolve to the newest tick.
bool Before(const ReplicaFrame& a, const ReplicaFrame& b) {
  if (a.snapshot->time != b.snapshot->time) {
    return a.snapshot->time < b.snapshot->time;
  }
  return a.tick < b.tick;
}

}  // namespace

SnapshotReadReplica::SnapshotReadReplica(const core::SnapshotPolicy& policy,
                                         double decay_lambda)
    : capacity_per_order_(CapacityPerOrder(policy)),
      decay_lambda_(decay_lambda),
      state_(std::make_shared<const ReplicaState>()) {
  UMICRO_CHECK(decay_lambda >= 0.0);
}

void SnapshotReadReplica::PublishSnapshot(
    std::uint64_t tick, std::size_t order,
    std::shared_ptr<const core::Snapshot> snapshot) {
  UMICRO_CHECK(snapshot != nullptr);
  if (order >= orders_.size()) orders_.resize(order + 1);
  auto& ring = orders_[order];
  ring.push_back({tick, snapshot});
  // Cadence frames arrive in increasing (time, tick), so the new frame
  // normally lands at the end; priming hands over ring by ring.
  history_.insert(std::upper_bound(history_.begin(), history_.end(),
                                   ring.back(), Before),
                  ring.back());
  if (ring.size() > capacity_per_order_) {
    history_.erase(std::lower_bound(history_.begin(), history_.end(),
                                    ring.front(), Before));
    ring.pop_front();
  }
  // A cadence snapshot is also the freshest view of the live state.
  current_ = std::move(snapshot);
  InstallState();
}

void SnapshotReadReplica::PublishCurrent(
    std::shared_ptr<const core::Snapshot> snapshot) {
  UMICRO_CHECK(snapshot != nullptr);
  current_ = std::move(snapshot);
  InstallState();
}

void SnapshotReadReplica::InstallState() {
  auto next = std::make_shared<ReplicaState>();
  next->publish_seq = ++publish_seq_;
  next->current = current_;
  next->history = history_;
  std::shared_ptr<const ReplicaState> installed(std::move(next));
  std::lock_guard<std::mutex> lock(state_mu_);
  state_.swap(installed);
}

std::shared_ptr<const ReplicaState> SnapshotReadReplica::Acquire() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

const core::Snapshot* SnapshotReadReplica::FindAtOrBefore(
    const ReplicaState& state, double time) {
  const core::Snapshot* best = nullptr;
  for (const ReplicaFrame& frame : state.history) {
    if (frame.snapshot->time > time) break;  // history is ascending
    best = frame.snapshot.get();
  }
  return best;
}

const core::Snapshot* SnapshotReadReplica::FindNearest(
    const ReplicaState& state, double time) {
  const core::Snapshot* best = nullptr;
  double best_diff = 0.0;
  for (const ReplicaFrame& frame : state.history) {
    // `<=`: on ties the later history entry -- later time, then newer
    // tick -- wins, matching SnapshotStore::FindNearest.
    const double diff = std::abs(frame.snapshot->time - time);
    if (best == nullptr || diff <= best_diff) {
      best = frame.snapshot.get();
      best_diff = diff;
    }
  }
  return best;
}

}  // namespace umicro::serve
