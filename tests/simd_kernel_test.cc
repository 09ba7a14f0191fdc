// Contract tests for the SIMD-dispatched matmul kernels (tensor/simd.h,
// tensor/kernels.h):
//  - tile-boundary and K-panel-boundary shapes match the naive oracle to
//    0 ULP in deterministic mode,
//  - every dispatch level this machine can run (scalar / sse2 / avx2)
//    produces bitwise-identical deterministic results,
//  - deterministic mode is bitwise-unchanged from the pre-SIMD kernels this
//    PR replaced (embedded below as references), at 1/2/8 threads,
//  - fast mode stays within a mass-scaled error bound of the oracle,
//  - one-column products equal the oracle bitwise in both kernel modes,
//  - the ReLU kernel is `x > 0 ? x : 0` bit for bit at every level,
//  - KUCNET_SIMD parsing.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "tensor/simd.h"
#include "testing/oracle.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kucnet {
namespace {

using testing::OracleMatMul;
using testing::OracleMatMulTransposedA;
using testing::OracleMatMulTransposedB;

// ---- Pre-SIMD reference kernels ---------------------------------------------
// Verbatim copies of the loops the register-tiled kernels replaced. They are
// the bitwise contract deterministic mode must keep: same per-element
// accumulation order, separate mul+add rounding. (The old zero-skip is kept
// too; with finite inputs it can only affect the sign of exact zeros, which
// Matrix::Equals treats as equal.)

Matrix ReferenceMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    const real_t* arow = a.row(i);
    real_t* crow = c.row(i);
    for (int64_t kk = 0; kk < a.cols(); ++kk) {
      const real_t av = arow[kk];
      if (av == 0.0) continue;
      const real_t* brow = b.row(kk);
      for (int64_t j = 0; j < b.cols(); ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix ReferenceMatMulTransposedA(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (int64_t i = 0; i < a.cols(); ++i) {
    real_t* crow = c.row(i);
    for (int64_t kk = 0; kk < a.rows(); ++kk) {
      const real_t av = a.row(kk)[i];
      if (av == 0.0) continue;
      const real_t* brow = b.row(kk);
      for (int64_t j = 0; j < b.cols(); ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix ReferenceMatMulTransposedB(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (int64_t i = 0; i < a.rows(); ++i) {
    const real_t* arow = a.row(i);
    real_t* crow = c.row(i);
    for (int64_t j = 0; j < b.rows(); ++j) {
      const real_t* brow = b.row(j);
      real_t dot = 0.0;
      for (int64_t kk = 0; kk < a.cols(); ++kk) dot += arow[kk] * brow[kk];
      crow[j] += dot;
    }
  }
  return c;
}

// -----------------------------------------------------------------------------

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const int detected = static_cast<int>(DetectedSimdLevel());
  if (detected >= static_cast<int>(SimdLevel::kSse2)) {
    levels.push_back(SimdLevel::kSse2);
  }
  if (detected >= static_cast<int>(SimdLevel::kAvx2)) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

void ExpectBitwise(const Matrix& got, const Matrix& want, const char* what) {
  EXPECT_TRUE(got.Equals(want))
      << what << ": max abs diff " << got.MaxAbsDiff(want);
}

TEST(SimdKernelTest, TileBoundaryShapesMatchOracleExactly) {
  ScopedKernelMode det(KernelMode::kDeterministic);
  // The register tile is at most 6x8 (kMaxMr x kMaxNr covers every level),
  // so dims straddling {1, tile-1, tile, tile+1} exercise full tiles, edge
  // tiles, and single-lane remainders in every combination — at every
  // dispatch level this machine supports.
  const std::vector<int64_t> ms = {1, 5, 6, 7, 13};
  const std::vector<int64_t> ns = {1, 7, 8, 9, 17};
  const std::vector<int64_t> ks = {1, 2, 9};
  Rng rng(101);
  for (const SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel forced(level);
    for (const int64_t m : ms) {
      for (const int64_t n : ns) {
        for (const int64_t k : ks) {
          const Matrix a = Matrix::RandomNormal(m, k, 1.0, rng);
          const Matrix b = Matrix::RandomNormal(k, n, 1.0, rng);
          ExpectBitwise(MatMul(a, b), OracleMatMul(a, b), "MatMul");
          const Matrix at = Transpose(a);
          ExpectBitwise(MatMulTransposedA(at, b),
                        OracleMatMulTransposedA(at, b), "MatMulTransposedA");
          const Matrix bt = Transpose(b);
          ExpectBitwise(MatMulTransposedB(a, bt),
                        OracleMatMulTransposedB(a, bt), "MatMulTransposedB");
        }
      }
    }
  }
}

TEST(SimdKernelTest, KcPanelBoundaryMatchesOracleExactly) {
  ScopedKernelMode det(KernelMode::kDeterministic);
  // K straddling the 256-deep packing panel: the accumulation chain must
  // round-trip through C between panels without changing a single bit.
  Rng rng(103);
  for (const int64_t k : {255, 256, 257, 511, 513}) {
    const Matrix a = Matrix::RandomNormal(13, k, 1.0, rng);
    const Matrix b = Matrix::RandomNormal(k, 17, 1.0, rng);
    ExpectBitwise(MatMul(a, b), OracleMatMul(a, b), "MatMul@kc");
    const Matrix at = Transpose(a);
    ExpectBitwise(MatMulTransposedA(at, b), OracleMatMulTransposedA(at, b),
                  "MatMulTransposedA@kc");
    const Matrix bt = Transpose(b);
    ExpectBitwise(MatMulTransposedB(a, bt), OracleMatMulTransposedB(a, bt),
                  "MatMulTransposedB@kc");
  }
}

TEST(SimdKernelTest, DispatchLevelsAgreeBitwise) {
  ScopedKernelMode det(KernelMode::kDeterministic);
  // Deterministic mode: scalar and vector micro-kernels must produce the
  // same bits — vectorization only widens across output columns, it never
  // re-associates any element's chain.
  Rng rng(107);
  const Matrix a = Matrix::RandomNormal(129, 131, 1.0, rng);
  const Matrix b = Matrix::RandomNormal(131, 67, 1.0, rng);
  Matrix scalar_mm, scalar_ta, scalar_tb;
  {
    ScopedSimdLevel forced(SimdLevel::kScalar);
    scalar_mm = MatMul(a, b);
    scalar_ta = MatMulTransposedA(a, MatMul(a, b));
    scalar_tb = MatMulTransposedB(a, Transpose(b));
  }
  for (const SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel forced(level);
    ExpectBitwise(MatMul(a, b), scalar_mm, SimdLevelName(level));
    ExpectBitwise(MatMulTransposedA(a, MatMul(a, b)), scalar_ta,
                  SimdLevelName(level));
    ExpectBitwise(MatMulTransposedB(a, Transpose(b)), scalar_tb,
                  SimdLevelName(level));
  }
}

TEST(SimdKernelTest, DeterministicModeMatchesPreSimdKernels) {
  ScopedKernelMode det(KernelMode::kDeterministic);
  // The regression that pins the "deterministic" contract: results are
  // bit-for-bit what the pre-SIMD kernels produced, at every thread count
  // (oversubscription forced so multi-worker pools are real on any machine)
  // and every dispatch level.
  Rng rng(109);
  const Matrix a = Matrix::RandomNormal(96, 200, 1.0, rng);
  const Matrix b = Matrix::RandomNormal(200, 80, 1.0, rng);
  const Matrix odd_a = Matrix::RandomNormal(129, 67, 1.0, rng);
  const Matrix odd_b = Matrix::RandomNormal(67, 255, 1.0, rng);
  const Matrix want_mm = ReferenceMatMul(a, b);
  const Matrix want_ta = ReferenceMatMulTransposedA(a, MatMul(a, b));
  const Matrix want_tb = ReferenceMatMulTransposedB(a, Transpose(b));
  const Matrix want_odd = ReferenceMatMul(odd_a, odd_b);
  SetOversubscribeForTest(true);
  for (const int threads : {1, 2, 8}) {
    SetGlobalPoolThreads(threads);
    for (const SimdLevel level : AvailableLevels()) {
      ScopedSimdLevel forced(level);
      ExpectBitwise(MatMul(a, b), want_mm, "MatMul vs pre-SIMD");
      ExpectBitwise(MatMulTransposedA(a, MatMul(a, b)), want_ta,
                    "MatMulTransposedA vs pre-SIMD");
      ExpectBitwise(MatMulTransposedB(a, Transpose(b)), want_tb,
                    "MatMulTransposedB vs pre-SIMD");
      ExpectBitwise(MatMul(odd_a, odd_b), want_odd, "odd MatMul vs pre-SIMD");
    }
  }
  SetGlobalPoolThreads(1);
  ClearOversubscribeForTest();
}

TEST(SimdKernelTest, FastModeStaysMassBounded) {
  // Fast mode may re-round (FMA contraction) but never re-orders, so each
  // element must sit within a tiny multiple of its accumulated magnitude
  // sum_k |a_ik||b_kj| of the oracle value.
  Rng rng(113);
  const Matrix a = Matrix::RandomNormal(65, 130, 1.0, rng);
  const Matrix b = Matrix::RandomNormal(130, 33, 1.0, rng);
  Matrix abs_a = a, abs_b = b;
  for (int64_t i = 0; i < abs_a.size(); ++i) {
    abs_a.data()[i] = std::abs(abs_a.data()[i]);
  }
  for (int64_t i = 0; i < abs_b.size(); ++i) {
    abs_b.data()[i] = std::abs(abs_b.data()[i]);
  }
  const Matrix mass = OracleMatMul(abs_a, abs_b);
  const Matrix want = OracleMatMul(a, b);
  ScopedKernelMode fast(KernelMode::kFast);
  for (const SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel forced(level);
    const Matrix got = MatMul(a, b);
    for (int64_t i = 0; i < got.rows(); ++i) {
      for (int64_t j = 0; j < got.cols(); ++j) {
        const double bound = 1e-12 * mass.at(i, j) + 1e-300;
        ASSERT_LE(std::abs(got.at(i, j) - want.at(i, j)), bound)
            << "(" << i << "," << j << ") at " << SimdLevelName(level);
      }
    }
  }
}

TEST(SimdKernelTest, OneColumnProductsMatchOracleExactly) {
  // m x k x 1 (the readout, the attention logit) in all three layouts, with
  // m*k on both sides of the tiled path's 2^12 threshold and k across the
  // 256-deep panel: each output keeps the oracle's ascending-k chain at
  // every level, in fast mode too (one-column products never take the FMA
  // micro-kernel). The last shape is big enough to run threaded.
  constexpr int64_t kTiledMinFlops = int64_t{1} << 12;
  std::vector<std::pair<int64_t, int64_t>> shapes;  // (m, k)
  for (const int64_t k : {1, 5, 32, 257}) {
    for (const int64_t m : {int64_t{1}, int64_t{6}, (kTiledMinFlops - 1) / k,
                            kTiledMinFlops / k + 1}) {
      shapes.push_back({m, k});
    }
  }
  shapes.push_back({(int64_t{1} << 17) + 3, 32});
  Rng rng(131);
  SetOversubscribeForTest(true);
  SetGlobalPoolThreads(4);
  for (const auto& [m, k] : shapes) {
    const Matrix a = Matrix::RandomNormal(m, k, 1.0, rng);
    const Matrix b = Matrix::RandomNormal(k, 1, 1.0, rng);
    const Matrix at = Transpose(a);
    const Matrix bt = Transpose(b);
    const Matrix want = OracleMatMul(a, b);
    for (const KernelMode mode :
         {KernelMode::kDeterministic, KernelMode::kFast}) {
      ScopedKernelMode forced_mode(mode);
      for (const SimdLevel level : AvailableLevels()) {
        ScopedSimdLevel forced(level);
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x1 " +
                     KernelModeName(mode) + " " + SimdLevelName(level));
        ExpectBitwise(MatMul(a, b), want, "MatMul");
        ExpectBitwise(MatMulTransposedA(at, b), want, "MatMulTransposedA");
        ExpectBitwise(MatMulTransposedB(a, bt), want, "MatMulTransposedB");
      }
    }
  }
  SetGlobalPoolThreads(1);
  ClearOversubscribeForTest();
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

TEST(SimdKernelTest, ReluKernelIsTheScalarComparisonBitForBit) {
  // maxpd(x, +0) against `x > 0.0 ? x : 0.0` on every input class (both
  // zeros, denormals, infinities, NaNs of either sign, normals), out of
  // place and in place, at every length 0-17 so each level's vector body
  // and scalar tail both run. Nothing past n may be written.
  using Limits = std::numeric_limits<double>;
  const std::vector<double> specials = {
      0.0,  -0.0, Limits::denorm_min(), -Limits::denorm_min(),
      Limits::min() / 4, -Limits::min() / 4, Limits::infinity(),
      -Limits::infinity(), Limits::quiet_NaN(), -Limits::quiet_NaN(),
      Limits::min(), -Limits::min(), Limits::max(), -Limits::max()};
  Rng rng(137);
  for (const SimdLevel level : AvailableLevels()) {
    const detail::KernelSet& kernels = detail::GetKernelSet(level);
    for (int64_t n = 0; n <= 17; ++n) {
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<double> src(n + 1);
        for (double& x : src) {
          x = rng.Bernoulli(0.5)
                  ? specials[rng.UniformInt(
                        static_cast<int64_t>(specials.size()))]
                  : rng.Normal(0.0, 1.0);
        }
        constexpr double kSentinel = 7.0;
        std::vector<double> dst(n + 1, kSentinel);
        kernels.row_relu(dst.data(), src.data(), n);
        std::vector<double> in_place = src;
        kernels.row_relu(in_place.data(), in_place.data(), n);
        for (int64_t i = 0; i < n; ++i) {
          const double want = src[i] > 0.0 ? src[i] : 0.0;
          ASSERT_EQ(Bits(dst[i]), Bits(want))
              << SimdLevelName(level) << " n=" << n << " x=" << src[i];
          ASSERT_EQ(Bits(in_place[i]), Bits(want))
              << SimdLevelName(level) << " in place, n=" << n
              << " x=" << src[i];
        }
        ASSERT_EQ(Bits(dst[n]), Bits(kSentinel)) << SimdLevelName(level);
        ASSERT_EQ(Bits(in_place[n]), Bits(src[n])) << SimdLevelName(level);
      }
    }
  }
}

TEST(SimdKernelTest, ParseSimdLevel) {
  SimdLevel level = SimdLevel::kAvx2;
  EXPECT_TRUE(ParseSimdLevel("scalar", &level));
  EXPECT_EQ(level, SimdLevel::kScalar);
  EXPECT_TRUE(ParseSimdLevel("sse2", &level));
  EXPECT_EQ(level, SimdLevel::kSse2);
  EXPECT_TRUE(ParseSimdLevel("avx2", &level));
  EXPECT_EQ(level, SimdLevel::kAvx2);
  level = SimdLevel::kSse2;
  EXPECT_FALSE(ParseSimdLevel("auto", &level));
  EXPECT_FALSE(ParseSimdLevel("", &level));
  EXPECT_FALSE(ParseSimdLevel("AVX2", &level));
  EXPECT_FALSE(ParseSimdLevel("avx512", &level));
  EXPECT_EQ(level, SimdLevel::kSse2);  // untouched on failure
}

TEST(SimdKernelTest, OverrideClampsToDetectedLevel) {
  // Forcing a level the CPU lacks clamps down instead of crashing; forcing
  // scalar always sticks.
  {
    ScopedSimdLevel forced(SimdLevel::kAvx2);
    EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
              static_cast<int>(DetectedSimdLevel()));
  }
  {
    ScopedSimdLevel forced(SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  }
}

}  // namespace
}  // namespace kucnet
