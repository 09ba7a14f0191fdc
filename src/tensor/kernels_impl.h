#ifndef KUCNET_TENSOR_KERNELS_IMPL_H_
#define KUCNET_TENSOR_KERNELS_IMPL_H_

#include <cstdint>

#include "tensor/kernels.h"

/// \file
/// Generic register-tiled kernel bodies, instantiated once per SimdLevel by
/// the kernels_<level>.cc translation units (each compiled with that level's
/// ISA flags). The `Lane` policy supplies the vector type and the IEEE ops;
/// MR / NJ pick the register tile (NJ vectors of Lane::kWidth columns).
///
/// Numerical contract: MatMulMicro keeps exactly one accumulator per output
/// element and applies products in ascending packed-k order, so with
/// kFuse=false every level reproduces the scalar loop bit-for-bit. kFuse=true
/// routes through Lane::Fma (a real fused op only where the ISA has one).
/// These translation units are compiled with -ffp-contract=off so the
/// compiler cannot silently fuse the kFuse=false path.

namespace kucnet {
namespace detail {

/// Full unrolling of the small constant-trip tile loops matters: the
/// accumulator array must be scalarized into registers.
#if defined(__clang__)
#define KUC_TILE_UNROLL _Pragma("unroll")
#else
#define KUC_TILE_UNROLL _Pragma("GCC unroll 8")
#endif

template <class Lane, int MR, int NJ>
struct KernelBundle {
  using V = typename Lane::V;
  static constexpr int kNR = NJ * Lane::kWidth;

  template <bool kFuse>
  static void MatMulMicro(int64_t kc, const real_t* pa, const real_t* pb,
                          real_t* c, int64_t ldc) {
    V acc[MR][NJ];
    KUC_TILE_UNROLL
    for (int r = 0; r < MR; ++r) {
      KUC_TILE_UNROLL
      for (int j = 0; j < NJ; ++j) {
        acc[r][j] = Lane::Load(c + r * ldc + j * Lane::kWidth);
      }
    }
    for (int64_t p = 0; p < kc; ++p) {
      V bv[NJ];
      KUC_TILE_UNROLL
      for (int j = 0; j < NJ; ++j) {
        bv[j] = Lane::Load(pb + p * kNR + j * Lane::kWidth);
      }
      const real_t* ap = pa + p * MR;
      KUC_TILE_UNROLL
      for (int r = 0; r < MR; ++r) {
        const V av = Lane::Broadcast(ap[r]);
        KUC_TILE_UNROLL
        for (int j = 0; j < NJ; ++j) {
          if constexpr (kFuse) {
            acc[r][j] = Lane::Fma(av, bv[j], acc[r][j]);
          } else {
            acc[r][j] = Lane::Add(acc[r][j], Lane::Mul(av, bv[j]));
          }
        }
      }
    }
    KUC_TILE_UNROLL
    for (int r = 0; r < MR; ++r) {
      KUC_TILE_UNROLL
      for (int j = 0; j < NJ; ++j) {
        Lane::Store(c + r * ldc + j * Lane::kWidth, acc[r][j]);
      }
    }
  }

  // Row primitives: element-wise, so lane width never changes results.

  static void RowAdd(real_t* dst, const real_t* src, int64_t n) {
    int64_t i = 0;
    for (; i + Lane::kWidth <= n; i += Lane::kWidth) {
      Lane::Store(dst + i, Lane::Add(Lane::Load(dst + i), Lane::Load(src + i)));
    }
    for (; i < n; ++i) dst[i] += src[i];
  }

  static void RowCopy(real_t* dst, const real_t* src, int64_t n) {
    int64_t i = 0;
    for (; i + Lane::kWidth <= n; i += Lane::kWidth) {
      Lane::Store(dst + i, Lane::Load(src + i));
    }
    for (; i < n; ++i) dst[i] = src[i];
  }

  static void RowAxpy(real_t* dst, real_t alpha, const real_t* src,
                      int64_t n) {
    const V va = Lane::Broadcast(alpha);
    int64_t i = 0;
    for (; i + Lane::kWidth <= n; i += Lane::kWidth) {
      Lane::Store(dst + i, Lane::Add(Lane::Load(dst + i),
                                     Lane::Mul(va, Lane::Load(src + i))));
    }
    for (; i < n; ++i) dst[i] += alpha * src[i];
  }

  static void RowScale(real_t* dst, real_t alpha, int64_t n) {
    const V va = Lane::Broadcast(alpha);
    int64_t i = 0;
    for (; i + Lane::kWidth <= n; i += Lane::kWidth) {
      Lane::Store(dst + i, Lane::Mul(va, Lane::Load(dst + i)));
    }
    for (; i < n; ++i) dst[i] *= alpha;
  }

  /// Lane::Max(x, +0) returns +0 unless x > 0, the one IEEE comparison the
  /// scalar `x > 0 ? x : 0` makes, so NaN and -0 map to +0 at every level.
  static void RowRelu(real_t* dst, const real_t* src, int64_t n) {
    const V zero = Lane::Broadcast(0.0);
    int64_t i = 0;
    for (; i + Lane::kWidth <= n; i += Lane::kWidth) {
      Lane::Store(dst + i, Lane::Max(Lane::Load(src + i), zero));
    }
    for (; i < n; ++i) dst[i] = src[i] > 0.0 ? src[i] : 0.0;
  }

  /// Assembles the KernelSet for this instantiation. `fast_micro` lets a
  /// level without a fused op alias fast to the deterministic kernel.
  static KernelSet MakeSet(SimdLevel level, MicroKernelFn fast_micro) {
    KernelSet set;
    set.level = level;
    set.mr = MR;
    set.nr = kNR;
    set.matmul_det = &MatMulMicro<false>;
    set.matmul_fast = fast_micro;
    set.row_add = &RowAdd;
    set.row_copy = &RowCopy;
    set.row_axpy = &RowAxpy;
    set.row_scale = &RowScale;
    set.row_relu = &RowRelu;
    return set;
  }
};

#undef KUC_TILE_UNROLL

}  // namespace detail
}  // namespace kucnet

#endif  // KUCNET_TENSOR_KERNELS_IMPL_H_
