#include "kernels/dispatch.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace umicro::kernels {

namespace {

Backend ProbeHardware() {
#if UMICRO_KERNELS_X64 && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Backend::kAvx2;
  }
#endif
  return Backend::kScalar;
}

Backend ResolveBackend() {
  const Backend hardware = ProbeHardware();
  const char* override_name = std::getenv("UMICRO_KERNEL");
  if (override_name == nullptr || override_name[0] == '\0') return hardware;
  if (std::strcmp(override_name, "scalar") == 0) return Backend::kScalar;
  // "avx2" names the top tier, and the override can only clamp
  // downward (requesting a tier the CPU cannot execute would trap on
  // the first vector instruction), so it leaves the hardware tier.
  if (std::strcmp(override_name, "avx2") != 0) {
    std::fprintf(stderr,
                 "UMICRO_KERNEL=%s is not one of scalar|avx2; using %s\n",
                 override_name, BackendName(hardware));
  }
  return hardware;
}

}  // namespace

Backend DetectBackend() {
  static const Backend backend = ResolveBackend();
  return backend;
}

std::span<const Backend> SupportedBackends() {
  static constexpr Backend kTiers[] = {Backend::kScalar, Backend::kAvx2};
  static const std::size_t count =
      ProbeHardware() == Backend::kAvx2 ? 2 : 1;
  return {kTiers, count};
}

const char* BackendName(Backend backend) {
  return backend == Backend::kAvx2 ? "avx2" : "scalar";
}

}  // namespace umicro::kernels
