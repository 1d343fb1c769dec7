// Deterministic failure-injection points for resilience testing.
//
// A failpoint is a named site in production code (queue, merge,
// checkpoint-write, worker-loop paths) that tests can arm to simulate a
// fault: a worker death, an I/O failure, a stall. Disarmed failpoints
// cost one relaxed atomic load, so the hooks stay compiled into release
// binaries and the crash-recovery suite exercises the exact production
// code paths.
//
// Usage (test side):
//   FailpointRegistry::Instance().Arm("checkpoint.write_fail",
//                                     {.skip = 2, .limit = 1});
//   ... run the system; the 3rd checkpoint write fails once ...
//   FailpointRegistry::Instance().DisarmAll();
//
// Usage (instrumented site):
//   if (UMICRO_FAILPOINT("checkpoint.write_fail")) return false;

#ifndef UMICRO_UTIL_FAILPOINTS_H_
#define UMICRO_UTIL_FAILPOINTS_H_

#include <atomic>
#include <cstddef>
#include <limits>
#include <map>
#include <mutex>
#include <string>

namespace umicro::util {

/// How an armed failpoint behaves.
struct FailpointSpec {
  /// Hits that pass through untriggered before the first trigger.
  std::size_t skip = 0;
  /// Maximum number of triggering hits; further hits pass through.
  std::size_t limit = std::numeric_limits<std::size_t>::max();
  /// For stall-style sites: how long the site should sleep when
  /// triggered (the site reads this via StallMillis).
  std::size_t stall_millis = 0;
};

/// Process-wide named failpoints. Thread-safe; the disarmed fast path is
/// a single relaxed atomic load (no lock, no lookup).
class FailpointRegistry {
 public:
  /// The process-wide registry.
  static FailpointRegistry& Instance();

  /// Arms `name` with the given behavior (re-arming resets its counts).
  void Arm(const std::string& name, FailpointSpec spec = {});

  /// Disarms everything (test teardown).
  void DisarmAll();

  /// Site hook: records a hit on `name` and reports whether this hit
  /// triggers the simulated fault. Always false while disarmed.
  bool ShouldTrigger(const std::string& name);

  /// Site hook for stall sites: the stall duration of a triggering hit,
  /// 0 when the hit does not trigger. Counts a hit like ShouldTrigger.
  std::size_t StallMillis(const std::string& name);

  /// True when any failpoint is currently armed (sites use this to skip
  /// the locked lookup; exposed for tests).
  bool AnyArmed() const {
    return any_armed_.load(std::memory_order_relaxed);
  }

 private:
  struct PointState {
    FailpointSpec spec;
    std::size_t hits = 0;
    std::size_t triggers = 0;
  };

  FailpointRegistry() = default;

  std::mutex mu_;
  std::atomic<bool> any_armed_{false};
  std::map<std::string, PointState> points_;
};

}  // namespace umicro::util

/// True when the named failpoint is armed and this hit triggers. The
/// string is only constructed on the slow (armed) path.
#define UMICRO_FAILPOINT(name)                                      \
  (::umicro::util::FailpointRegistry::Instance().AnyArmed() &&      \
   ::umicro::util::FailpointRegistry::Instance().ShouldTrigger(name))

#endif  // UMICRO_UTIL_FAILPOINTS_H_
