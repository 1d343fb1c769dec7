#include "util/failpoints.h"

namespace umicro::util {

FailpointRegistry& FailpointRegistry::Instance() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

void FailpointRegistry::Arm(const std::string& name, FailpointSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  points_[name] = PointState{spec, 0, 0};
  any_armed_.store(true, std::memory_order_relaxed);
}

void FailpointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
  any_armed_.store(false, std::memory_order_relaxed);
}

bool FailpointRegistry::ShouldTrigger(const std::string& name) {
  if (!AnyArmed()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) return false;
  PointState& point = it->second;
  const std::size_t hit = point.hits++;
  if (hit < point.spec.skip) return false;
  if (point.triggers >= point.spec.limit) return false;
  ++point.triggers;
  return true;
}

std::size_t FailpointRegistry::StallMillis(const std::string& name) {
  if (!AnyArmed()) return 0;
  std::size_t stall = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = points_.find(name);
    if (it == points_.end()) return 0;
    stall = it->second.spec.stall_millis;
  }
  return ShouldTrigger(name) ? stall : 0;
}

}  // namespace umicro::util
