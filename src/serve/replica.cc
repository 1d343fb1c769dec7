#include "serve/replica.h"

#include <algorithm>

#include "util/check.h"

namespace umicro::serve {

SnapshotReadReplica::SnapshotReadReplica(const core::SnapshotPolicy& policy,
                                         double decay_lambda)
    : decay_lambda_(decay_lambda),
      store_(policy.pyramid_alpha, policy.pyramid_l),
      state_(std::make_shared<const ReplicaState>()) {
  UMICRO_CHECK(decay_lambda >= 0.0);
}

void SnapshotReadReplica::PublishSnapshot(
    std::uint64_t tick, std::shared_ptr<const core::Snapshot> snapshot) {
  UMICRO_CHECK(snapshot != nullptr);
  // The store checks that ticks increase, so appending keeps the
  // history in tick order.
  if (const auto evicted = store_.Insert(tick, snapshot)) {
    history_.erase(std::lower_bound(
        history_.begin(), history_.end(), *evicted,
        [](const ReplicaFrame& frame, std::uint64_t t) {
          return frame.tick < t;
        }));
  }
  history_.push_back({tick, snapshot});
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

std::shared_ptr<const core::Snapshot> ReplicaState::Find(
    double target, core::FramePick pick) const {
  // Every history frame is a full frame, so the first-ranked one
  // answers: one pass, no candidate list.
  const core::FrameRank rank{target, pick};
  const ReplicaFrame* best = nullptr;
  for (const ReplicaFrame& frame : history) {
    if (rank.Admits(frame.key()) &&
        (best == nullptr || rank(frame.key(), best->key()))) {
      best = &frame;
    }
  }
  return best == nullptr ? nullptr : best->snapshot;
}

}  // namespace umicro::serve
