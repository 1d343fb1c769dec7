// TenantHandle: one tenant's complete engine behind a compact movable
// handle -- the umappp Status shape applied to the fleet ("all algorithm
// state behind one movable handle with a driver").
//
// A handle owns exactly one core::EngineCore (the UMicro online
// component + its pyramidal snapshot timeline) tagged with the tenant
// id. Handles move freely: the fleet keeps them in its tenant table,
// ReleaseTenant() moves one out (live migration, offline compaction),
// AdoptTenant() moves one back in. An empty (default-constructed or
// moved-from) handle owns nothing and converts to false.

#ifndef UMICRO_FLEET_TENANT_HANDLE_H_
#define UMICRO_FLEET_TENANT_HANDLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/engine_core.h"
#include "core/snapshot.h"
#include "core/umicro.h"

namespace umicro::fleet {

/// Movable owner of one tenant's engine state.
class TenantHandle {
 public:
  /// Empty handle (owns no engine; operator bool is false).
  TenantHandle() = default;

  /// Creates tenant `id`'s engine for `dimensions`-dimensional streams.
  TenantHandle(std::uint64_t id, std::size_t dimensions,
               const core::UMicroOptions& umicro,
               const core::SnapshotPolicy& snapshot)
      : id_(id),
        core_(std::make_unique<core::EngineCore>(dimensions, umicro,
                                                 snapshot)) {}

  TenantHandle(TenantHandle&&) noexcept = default;
  TenantHandle& operator=(TenantHandle&&) noexcept = default;
  TenantHandle(const TenantHandle&) = delete;
  TenantHandle& operator=(const TenantHandle&) = delete;

  /// True when the handle owns an engine.
  explicit operator bool() const { return core_ != nullptr; }

  /// Tenant id (meaningful only on a non-empty handle).
  std::uint64_t id() const { return id_; }

  /// The owned engine state. Undefined on an empty handle.
  core::EngineCore& core() { return *core_; }
  const core::EngineCore& core() const { return *core_; }

 private:
  std::uint64_t id_ = 0;
  std::unique_ptr<core::EngineCore> core_;
};

}  // namespace umicro::fleet

#endif  // UMICRO_FLEET_TENANT_HANDLE_H_
