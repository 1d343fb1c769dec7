// Runtime selection of the vectorized kernel backend.
//
// Every kernel in this layer exists in three functionally equivalent
// tiers: a scalar reference (the semantics contract), an SSE2 variant
// (x86-64 baseline, 2 doubles per vector), and an AVX2+FMA variant
// (4 doubles per vector). The tier is chosen once per process by CPUID
// probing; the `UMICRO_KERNEL` environment variable (scalar | sse2 |
// avx2) clamps the choice downward for parity testing and benchmarking.
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

namespace umicro::kernels {

/// Kernel implementation tiers, ordered by capability.
enum class Backend {
  /// Portable reference implementation; the semantics contract.
  kScalar = 0,
  /// SSE2 intrinsics (always available on x86-64).
  kSse2 = 1,
  /// AVX2 + FMA intrinsics.
  kAvx2 = 2,
};

/// The best tier this CPU supports, clamped by the `UMICRO_KERNEL`
/// environment variable if set. Probed once; subsequent calls are free.
Backend DetectBackend();

/// Highest tier the hardware supports, ignoring the environment
/// override (used by parity tests to enumerate testable tiers).
Backend MaxSupportedBackend();

/// Human-readable tier name ("scalar", "sse2", "avx2").
const char* BackendName(Backend backend);

}  // namespace umicro::kernels

#endif  // UMICRO_KERNELS_DISPATCH_H_
