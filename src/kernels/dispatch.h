// Runtime selection of the vectorized kernel backend.
//
// Every tiered kernel in this layer exists in two functionally
// equivalent tiers: a scalar reference (the semantics contract) and an
// AVX2+FMA variant (4 doubles per vector). The tier is chosen once per
// process by CPUID probing; the `UMICRO_KERNEL` environment variable
// (scalar | avx2) clamps the choice downward for parity testing and
// benchmarking.
//
// Exactness contract (docs/kernels.md): element-wise update kernels
// (fused ECF add, decay scale, merge) are bit-identical across tiers --
// vector lanes perform the same multiply-then-add per element as the
// scalar loop. Reduction kernels (batch distances, similarity votes,
// closest-pair) reassociate the per-dimension sum, so tiers agree only
// to floating-point tolerance; callers must not depend on which side of
// an exact tie a reduction lands. The pair kernel (pair_similarity.h)
// puts its lanes across pairs instead, so it is bit-identical too.

#ifndef UMICRO_KERNELS_DISPATCH_H_
#define UMICRO_KERNELS_DISPATCH_H_

#include <span>
#include <type_traits>

/// 1 where the build targets x86-64, the only ISA with a vector tier.
#if defined(__x86_64__) || defined(_M_X64)
#define UMICRO_KERNELS_X64 1
#else
#define UMICRO_KERNELS_X64 0
#endif

namespace umicro::kernels {

/// Kernel implementation tiers, ordered by capability. The values are
/// published (the `umicro.kernel_tier` gauge), so they stay fixed; 1
/// belonged to a retired SSE2 tier.
enum class Backend {
  /// Portable reference implementation; the semantics contract.
  kScalar = 0,
  /// AVX2 + FMA intrinsics.
  kAvx2 = 2,
};

/// The best tier this CPU supports, clamped by the `UMICRO_KERNEL`
/// environment variable if set. Probed once; subsequent calls are free.
/// An unrecognized value prints one stderr line and is ignored.
Backend DetectBackend();

/// Every tier the hardware supports, ascending from kScalar, ignoring
/// the environment override (parity tests and benchmarks sweep these).
std::span<const Backend> SupportedBackends();

/// Human-readable tier name ("scalar", "avx2").
const char* BackendName(Backend backend);

/// A tier as a compile-time value.
template <Backend B>
using Tier = std::integral_constant<Backend, B>;

/// The layer's one tier decision: calls `body(Tier<Backend::kAvx2>{})`
/// for kAvx2 and `body(Tier<Backend::kScalar>{})` otherwise, so the body
/// names its per-tier kernels as `Kernel<tier>` and the choice is made
/// once per call, outside the kernel's loops. Tiered kernels are
/// templates over Backend whose primary template is the scalar
/// reference; x86-64 builds specialize kAvx2, other builds run the
/// primary template for both tiers.
template <typename Body>
decltype(auto) Dispatch(Backend backend, Body&& body) {
  if (backend == Backend::kAvx2) return body(Tier<Backend::kAvx2>{});
  return body(Tier<Backend::kScalar>{});
}

}  // namespace umicro::kernels

#endif  // UMICRO_KERNELS_DISPATCH_H_
