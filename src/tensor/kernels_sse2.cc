// SSE2 kernel instantiation (x86-64 baseline: always available there).
// 6x4 register tile = 12 xmm accumulators + 2 B vectors + 1 broadcast,
// within the 16-register budget. SSE2 has no fused multiply-add, so the
// fast kernel aliases the deterministic one.
//
// Compiled with -msse2 -ffp-contract=off (see src/tensor/CMakeLists.txt).

#if defined(KUCNET_HAVE_KERNELS_SSE2)

#include <emmintrin.h>

#include "tensor/kernels_impl.h"

namespace kucnet {
namespace detail {
namespace {

struct LaneSse2 {
  using V = __m128d;
  static constexpr int kWidth = 2;
  static V Load(const real_t* p) { return _mm_loadu_pd(p); }
  static void Store(real_t* p, V v) { _mm_storeu_pd(p, v); }
  static V Broadcast(real_t x) { return _mm_set1_pd(x); }
  static V Add(V a, V b) { return _mm_add_pd(a, b); }
  static V Mul(V a, V b) { return _mm_mul_pd(a, b); }
  static V Fma(V a, V b, V c) { return _mm_add_pd(_mm_mul_pd(a, b), c); }
  static V Max(V a, V b) { return _mm_max_pd(a, b); }  // a > b ? a : b
};

using Bundle = KernelBundle<LaneSse2, 6, 2>;

}  // namespace

const KernelSet& KernelSetSse2() {
  static const KernelSet set =
      Bundle::MakeSet(SimdLevel::kSse2, &Bundle::MatMulMicro<false>);
  return set;
}

}  // namespace detail
}  // namespace kucnet

#endif  // KUCNET_HAVE_KERNELS_SSE2
