#ifndef KUCNET_TENSOR_KERNELS_H_
#define KUCNET_TENSOR_KERNELS_H_

#include <cstdint>

#include "tensor/matrix.h"
#include "tensor/simd.h"

/// \file
/// Internal kernel table behind the SIMD dispatch seam (see simd.h).
///
/// Each compiled SimdLevel contributes one KernelSet: a register-tiled
/// matmul micro-kernel pair (deterministic / fast) plus vectorized row
/// primitives. The micro-kernels operate on packed panels:
///
///   PA: an MR-row sliver of op(A), k-major — pa[p * MR + r] = opA(r, p)
///   PB: an NR-column sliver of op(B), k-major — pb[p * NR + j] = opB(p, j)
///
/// and compute C[MR x NR] += PA * PB with ONE accumulation chain per output
/// element, products applied in ascending p. Because every lane performs the
/// same IEEE operation as the scalar loop, the deterministic kernels are
/// bitwise identical across all levels and to the original pre-SIMD loops.
/// The fast kernels may fuse multiply+add (FMA) where the level supports it.

namespace kucnet {
namespace detail {

/// C (row stride ldc) += PA * PB over a depth-kc packed panel pair.
using MicroKernelFn = void (*)(int64_t kc, const real_t* pa, const real_t* pb,
                               real_t* c, int64_t ldc);

using RowBinaryFn = void (*)(real_t* dst, const real_t* src, int64_t n);
using RowAxpyFn = void (*)(real_t* dst, real_t alpha, const real_t* src,
                           int64_t n);
using RowScaleFn = void (*)(real_t* dst, real_t alpha, int64_t n);
using RowUnaryFn = void (*)(real_t* dst, const real_t* src, int64_t n);

/// Everything one SIMD level knows how to do. mr/nr are the register tile
/// dimensions the micro-kernels are built for (and the sliver heights the
/// pack routines must produce).
struct KernelSet {
  SimdLevel level = SimdLevel::kScalar;
  int mr = 1;                            ///< register tile rows
  int nr = 1;                            ///< register tile columns
  MicroKernelFn matmul_det = nullptr;    ///< separate mul+add rounding
  MicroKernelFn matmul_fast = nullptr;   ///< FMA-contracted where available
  RowBinaryFn row_add = nullptr;         ///< dst[i] += src[i]
  RowBinaryFn row_copy = nullptr;        ///< dst[i] = src[i]
  RowAxpyFn row_axpy = nullptr;          ///< dst[i] += alpha * src[i]
  RowScaleFn row_scale = nullptr;        ///< dst[i] *= alpha
  /// dst[i] = max(src[i], +0) with maxpd semantics, which are bitwise
  /// `src[i] > 0 ? src[i] : +0` (NaN and both zeros give +0); dst may be src.
  RowUnaryFn row_relu = nullptr;
};

/// Kernel set for `level`, falling back to the best compiled-and-supported
/// level at or below it.
const KernelSet& GetKernelSet(SimdLevel level);

/// GetKernelSet(ActiveSimdLevel()).
const KernelSet& ActiveKernelSet();

/// Per-level providers, defined in kernels_<level>.cc. Only the levels this
/// build carries are declared usable (see KUCNET_HAVE_KERNELS_* defines).
const KernelSet& KernelSetScalar();
#if defined(KUCNET_HAVE_KERNELS_SSE2)
const KernelSet& KernelSetSse2();
#endif
#if defined(KUCNET_HAVE_KERNELS_AVX2)
const KernelSet& KernelSetAvx2();
#endif

/// Upper bounds over every level's tile dims, for stack scratch buffers.
inline constexpr int kMaxMr = 8;
inline constexpr int kMaxNr = 8;

}  // namespace detail
}  // namespace kucnet

#endif  // KUCNET_TENSOR_KERNELS_H_
