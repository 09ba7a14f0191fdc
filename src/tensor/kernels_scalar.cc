// Scalar (portable, no intrinsics) kernel instantiation. This is both the
// fallback for CPUs without SSE2/AVX2 and the reference every vector level
// must match bit-for-bit in deterministic mode. 4x4 register tile: enough to
// amortize the A-broadcast and keep accumulators in GPR/XMM scalar registers
// without spilling.

#include "tensor/kernels_impl.h"

namespace kucnet {
namespace detail {
namespace {

struct LaneScalar {
  using V = real_t;
  static constexpr int kWidth = 1;
  static V Load(const real_t* p) { return *p; }
  static void Store(real_t* p, V v) { *p = v; }
  static V Broadcast(real_t x) { return x; }
  static V Add(V a, V b) { return a + b; }
  static V Mul(V a, V b) { return a * b; }
  // No fused op at the baseline ISA: "fast" intentionally aliases the
  // deterministic rounding (see MakeSet call below).
  static V Fma(V a, V b, V c) { return a * b + c; }
  static V Max(V a, V b) { return a > b ? a : b; }
};

using Bundle = KernelBundle<LaneScalar, 4, 4>;

}  // namespace

const KernelSet& KernelSetScalar() {
  static const KernelSet set =
      Bundle::MakeSet(SimdLevel::kScalar, &Bundle::MatMulMicro<false>);
  return set;
}

}  // namespace detail
}  // namespace kucnet
