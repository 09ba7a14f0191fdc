// AVX2+FMA kernel instantiation. 6x8 register tile over 4-wide double
// lanes: 12 ymm accumulators + 2 B vectors + 1 broadcast = 15 of 16 ymm
// registers. The deterministic kernel uses separate mul+add (matching the
// scalar rounding exactly); the fast kernel fuses with vfmadd231pd, which
// halves the FP-port pressure at the cost of differently-rounded results.
//
// Compiled with -mavx2 -mfma -ffp-contract=off; nothing in this TU may run
// before the CPUID dispatch check (no global constructors touching vectors).

#if defined(KUCNET_HAVE_KERNELS_AVX2)

#include <immintrin.h>

#include "tensor/kernels_impl.h"

namespace kucnet {
namespace detail {
namespace {

struct LaneAvx2 {
  using V = __m256d;
  static constexpr int kWidth = 4;
  static V Load(const real_t* p) { return _mm256_loadu_pd(p); }
  static void Store(real_t* p, V v) { _mm256_storeu_pd(p, v); }
  static V Broadcast(real_t x) { return _mm256_set1_pd(x); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V Fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static V Max(V a, V b) { return _mm256_max_pd(a, b); }  // a > b ? a : b
};

using Bundle = KernelBundle<LaneAvx2, 6, 2>;

}  // namespace

const KernelSet& KernelSetAvx2() {
  static const KernelSet set =
      Bundle::MakeSet(SimdLevel::kAvx2, &Bundle::MatMulMicro<true>);
  return set;
}

}  // namespace detail
}  // namespace kucnet

#endif  // KUCNET_HAVE_KERNELS_AVX2
