#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "util/finite.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace kucnet {

namespace {

/// Minimum element count before element-wise kernels go parallel.
constexpr int64_t kElemParallelThreshold = int64_t{1} << 15;

/// Range size for element-wise ParallelForRanges bodies.
constexpr int64_t kElemGrain = int64_t{1} << 13;

/// Fixed reduction chunk: partial sums are always formed over chunks of this
/// many elements and merged in ascending chunk order, so the floating-point
/// association depends only on the problem size, never on the thread count.
constexpr int64_t kReduceChunk = int64_t{1} << 12;

/// Output rows per task of a threaded one-column product.
constexpr int64_t kColumnGrain = 1024;

/// Below this flop count the packed/tiled path's setup overhead loses to the
/// plain loops, which share its accumulation order exactly.
constexpr int64_t kTiledMinFlops = int64_t{1} << 12;

/// Cache blocking for the tiled matmul (doubles; sized for ~48K L1d / 2M L2):
///  - kKc: depth of one packed panel pair. An MR-row A sliver plus an NR-col
///    B sliver at depth 256 is (6+8)*256*8 ≈ 28 KiB — resident in L1d.
///  - kMc: rows of packed A kept hot per task: 264*256*8 ≈ 540 KiB in L2.
///    Must be a multiple of every level's MR (lcm(4, 6) = 12).
///  - kNc: columns of packed B shared by all tasks of one panel (≤ 4 MiB).
/// These are deliberately identical across SIMD levels and thread counts so
/// the panel decomposition — and therefore the accumulation chain — never
/// depends on dispatch.
constexpr int64_t kKc = 256;
constexpr int64_t kMc = 264;
constexpr int64_t kNc = 2048;

/// True when the convenience ParallelFor would actually fan out. Only used
/// to skip scheduling overhead on paths whose serial and parallel variants
/// are bitwise identical.
bool WantParallel(int64_t work, int64_t threshold) {
  return work >= threshold && EffectiveParallelism() > 1;
}

/// The three matmul layouts share one driver; op(A)/op(B) below denote the
/// logically-transposed operands (never materialized).
enum class MatMulVariant { kNormal, kTransA, kTransB };

struct OpDims {
  int64_t m = 0;  ///< rows of C
  int64_t n = 0;  ///< cols of C
  int64_t k = 0;  ///< contraction depth
};

OpDims DimsFor(MatMulVariant v, const Matrix& a, const Matrix& b) {
  switch (v) {
    case MatMulVariant::kNormal:
      return {a.rows(), b.cols(), a.cols()};
    case MatMulVariant::kTransA:
      return {a.cols(), b.cols(), a.rows()};
    case MatMulVariant::kTransB:
      return {a.rows(), b.rows(), a.cols()};
  }
  return {};
}

/// Packs rows [i0, i1) of op(A) at depth [p0, p0+kc) into MR-row k-major
/// slivers: pa[t*MR*kc + p*MR + r] = opA(i0 + t*MR + r, p0 + p). Rows past
/// i1 are zero-filled so edge tiles can run the full-size micro-kernel.
void PackA(const Matrix& a, MatMulVariant v, int64_t i0, int64_t i1,
           int64_t p0, int64_t kc, int mr, real_t* pa) {
  const int64_t tiles = (i1 - i0 + mr - 1) / mr;
  for (int64_t t = 0; t < tiles; ++t) {
    real_t* dst = pa + t * mr * kc;
    const int64_t r0 = i0 + t * mr;
    const int rows = static_cast<int>(std::min<int64_t>(mr, i1 - r0));
    if (v == MatMulVariant::kTransA) {
      // opA(i, p) = a(p, i): each source row is contiguous across the tile.
      for (int64_t p = 0; p < kc; ++p) {
        const real_t* src = a.row(p0 + p) + r0;
        real_t* out = dst + p * mr;
        for (int r = 0; r < rows; ++r) out[r] = src[r];
        for (int r = rows; r < mr; ++r) out[r] = 0.0;
      }
    } else {
      // opA(i, p) = a(i, p): stream each source row into a strided sliver.
      for (int r = 0; r < rows; ++r) {
        const real_t* src = a.row(r0 + r) + p0;
        for (int64_t p = 0; p < kc; ++p) dst[p * mr + r] = src[p];
      }
      for (int r = rows; r < mr; ++r) {
        for (int64_t p = 0; p < kc; ++p) dst[p * mr + r] = 0.0;
      }
    }
  }
}

/// Packs columns [j0, j1) of op(B) at depth [p0, p0+kc) into NR-column
/// k-major slivers: pb[t*kc*NR + p*NR + j] = opB(p0 + p, j0 + t*NR + j),
/// zero-filled past j1.
void PackB(const Matrix& b, MatMulVariant v, int64_t j0, int64_t j1,
           int64_t p0, int64_t kc, int nr, real_t* pb) {
  const int64_t tiles = (j1 - j0 + nr - 1) / nr;
  for (int64_t t = 0; t < tiles; ++t) {
    real_t* dst = pb + t * kc * nr;
    const int64_t c0 = j0 + t * nr;
    const int cols = static_cast<int>(std::min<int64_t>(nr, j1 - c0));
    if (v == MatMulVariant::kTransB) {
      // opB(p, j) = b(j, p): each source row is contiguous across depth.
      for (int c = 0; c < cols; ++c) {
        const real_t* src = b.row(c0 + c) + p0;
        for (int64_t p = 0; p < kc; ++p) dst[p * nr + c] = src[p];
      }
      for (int c = cols; c < nr; ++c) {
        for (int64_t p = 0; p < kc; ++p) dst[p * nr + c] = 0.0;
      }
    } else {
      for (int64_t p = 0; p < kc; ++p) {
        const real_t* src = b.row(p0 + p) + c0;
        real_t* out = dst + p * nr;
        for (int c = 0; c < cols; ++c) out[c] = src[c];
        for (int c = cols; c < nr; ++c) out[c] = 0.0;
      }
    }
  }
}

/// Plain-loop fallback for tiny problems. Accumulates each output element in
/// ascending-k order with separate mul+add rounding — the same chain as the
/// deterministic micro-kernel, so both paths agree bitwise.
void MatMulSmall(const Matrix& a, const Matrix& b, Matrix* c, MatMulVariant v) {
  const OpDims d = DimsFor(v, a, b);
  switch (v) {
    case MatMulVariant::kNormal:
      for (int64_t i = 0; i < d.m; ++i) {
        const real_t* arow = a.row(i);
        real_t* crow = c->row(i);
        for (int64_t kk = 0; kk < d.k; ++kk) {
          const real_t av = arow[kk];
          const real_t* brow = b.row(kk);
          for (int64_t j = 0; j < d.n; ++j) crow[j] += av * brow[j];
        }
      }
      break;
    case MatMulVariant::kTransA:
      for (int64_t i = 0; i < d.m; ++i) {
        real_t* crow = c->row(i);
        for (int64_t kk = 0; kk < d.k; ++kk) {
          const real_t av = a.row(kk)[i];
          const real_t* brow = b.row(kk);
          for (int64_t j = 0; j < d.n; ++j) crow[j] += av * brow[j];
        }
      }
      break;
    case MatMulVariant::kTransB:
      for (int64_t i = 0; i < d.m; ++i) {
        const real_t* arow = a.row(i);
        real_t* crow = c->row(i);
        for (int64_t j = 0; j < d.n; ++j) {
          const real_t* brow = b.row(j);
          real_t dot = 0.0;
          for (int64_t kk = 0; kk < d.k; ++kk) dot += arow[kk] * brow[kk];
          crow[j] = dot;
        }
      }
      break;
  }
}

/// Register-tiled, cache-blocked GEBP driver. C must be zero-initialized;
/// panels over K accumulate into it, which continues each element's single
/// accumulation chain across panels (values round-trip through memory
/// exactly). Threading splits output row-tiles: disjoint writes, identical
/// chains, so any thread count — and any SIMD level in deterministic mode —
/// produces bitwise-identical results.
void MatMulTiled(const Matrix& a, const Matrix& b, Matrix* c, MatMulVariant v) {
  const OpDims d = DimsFor(v, a, b);
  const detail::KernelSet& ks = detail::ActiveKernelSet();
  const detail::MicroKernelFn mk = ActiveKernelMode() == KernelMode::kFast
                                       ? ks.matmul_fast
                                       : ks.matmul_det;
  const int mr = ks.mr, nr = ks.nr;
  const int64_t ldc = c->cols();
  const bool parallel =
      WantParallel(d.m * d.n * d.k, kMatMulParallelFlops) && d.m > mr;

  const int64_t nc_cap =
      std::min<int64_t>(kNc, (d.n + nr - 1) / nr * static_cast<int64_t>(nr));
  std::vector<real_t> pb(static_cast<size_t>(kKc * std::max<int64_t>(nc_cap, nr)));

  for (int64_t jc = 0; jc < d.n; jc += kNc) {
    const int64_t nc = std::min(kNc, d.n - jc);
    const int64_t jtiles = (nc + nr - 1) / nr;
    for (int64_t pc = 0; pc < d.k; pc += kKc) {
      const int64_t kc = std::min(kKc, d.k - pc);
      PackB(b, v, jc, jc + nc, pc, kc, nr, pb.data());
      const int64_t itiles = (d.m + mr - 1) / mr;
      const int64_t tiles_per_block = kMc / mr;
      auto body = [&, kc, jc, nc, jtiles, pc](int64_t t0, int64_t t1) {
        std::vector<real_t> pa(static_cast<size_t>(
            std::min(t1 - t0, tiles_per_block) * mr * kc));
        for (int64_t tb = t0; tb < t1; tb += tiles_per_block) {
          const int64_t tb_end = std::min(t1, tb + tiles_per_block);
          PackA(a, v, tb * mr, std::min(d.m, tb_end * mr), pc, kc, mr,
                pa.data());
          for (int64_t t = tb; t < tb_end; ++t) {
            const int mr_eff = static_cast<int>(std::min<int64_t>(mr, d.m - t * mr));
            const real_t* pa_tile = pa.data() + (t - tb) * mr * kc;
            for (int64_t jt = 0; jt < jtiles; ++jt) {
              const int nr_eff =
                  static_cast<int>(std::min<int64_t>(nr, nc - jt * nr));
              const real_t* pb_tile = pb.data() + jt * kc * nr;
              real_t* cp = c->row(t * mr) + jc + jt * nr;
              if (mr_eff == mr && nr_eff == nr) {
                mk(kc, pa_tile, pb_tile, cp, ldc);
              } else {
                // Edge tile: run the full micro-kernel against a scratch
                // tile (zero-padded lanes are discarded on copy-back).
                real_t scratch[detail::kMaxMr * detail::kMaxNr];
                for (int i = 0; i < mr * nr; ++i) scratch[i] = 0.0;
                for (int r = 0; r < mr_eff; ++r) {
                  for (int col = 0; col < nr_eff; ++col) {
                    scratch[r * nr + col] = cp[r * ldc + col];
                  }
                }
                mk(kc, pa_tile, pb_tile, scratch, nr);
                for (int r = 0; r < mr_eff; ++r) {
                  for (int col = 0; col < nr_eff; ++col) {
                    cp[r * ldc + col] = scratch[r * nr + col];
                  }
                }
              }
            }
          }
        }
      };
      if (parallel && itiles > 1) {
        // ~4 tasks per L2-sized row block keeps the pool busy without
        // shredding the packed-A reuse.
        const int64_t grain = std::max<int64_t>(1, tiles_per_block / 4);
        ParallelForRanges(itiles, grain, body);
      } else {
        body(0, itiles);
      }
    }
  }
}

/// One-column product (n == 1: the readout, the attention logit, and the
/// gradient of either's weight column). Packing would pad each B sliver to
/// NR columns and run every tile through the edge-tile scratch; here each
/// output keeps its own ascending-k chain of separate mul+add roundings,
/// the deterministic micro-kernel's chain, in every kernel mode.
void MatMulColumn(const Matrix& a, const Matrix& b, Matrix* c,
                  MatMulVariant v) {
  const OpDims d = DimsFor(v, a, b);
  real_t* out = c->data();
  const real_t* col = b.data();  // k x 1, or 1 x k under kTransB
  const detail::RowAxpyFn axpy = detail::ActiveKernelSet().row_axpy;
  auto body = [&](int64_t lo, int64_t hi) {
    if (v == MatMulVariant::kTransA) {
      // opA(i, p) = a(p, i): row p of `a` holds term p of every output, so
      // one axpy per p extends all their chains at once.
      for (int64_t p = 0; p < d.k; ++p) {
        axpy(out + lo, col[p], a.row(p) + lo, hi - lo);
      }
      return;
    }
    // Four independent register chains hide the add latency.
    int64_t i = lo;
    for (; i + 4 <= hi; i += 4) {
      const real_t* a0 = a.row(i);
      const real_t* a1 = a.row(i + 1);
      const real_t* a2 = a.row(i + 2);
      const real_t* a3 = a.row(i + 3);
      real_t s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (int64_t p = 0; p < d.k; ++p) {
        const real_t x = col[p];
        s0 += a0[p] * x;
        s1 += a1[p] * x;
        s2 += a2[p] * x;
        s3 += a3[p] * x;
      }
      out[i] = s0;
      out[i + 1] = s1;
      out[i + 2] = s2;
      out[i + 3] = s3;
    }
    for (; i < hi; ++i) {
      const real_t* ai = a.row(i);
      real_t s = 0.0;
      for (int64_t p = 0; p < d.k; ++p) s += ai[p] * col[p];
      out[i] = s;
    }
  };
  if (WantParallel(d.m * d.k, kMatMulParallelFlops) && d.m > kColumnGrain) {
    ParallelForRanges(d.m, kColumnGrain, body);
  } else {
    body(0, d.m);
  }
}

void MatMulDispatch(const Matrix& a, const Matrix& b, Matrix* c,
                    MatMulVariant v) {
  const OpDims d = DimsFor(v, a, b);
  if (d.m == 0 || d.n == 0 || d.k == 0) return;  // C stays all-zero
  if (d.n == 1) {
    MatMulColumn(a, b, c, v);
  } else if (d.m * d.n * d.k < kTiledMinFlops) {
    MatMulSmall(a, b, c, v);
  } else {
    MatMulTiled(a, b, c, v);
  }
}

}  // namespace

Matrix::Matrix(int64_t rows, int64_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {
  KUC_CHECK_GE(rows, 0);
  KUC_CHECK_GE(cols, 0);
}

Matrix Matrix::Zeros(int64_t rows, int64_t cols) { return Matrix(rows, cols); }

Matrix Matrix::Filled(int64_t rows, int64_t cols, real_t value) {
  Matrix m(rows, cols);
  std::fill(m.data_.begin(), m.data_.end(), value);
  return m;
}

Matrix Matrix::RandomNormal(int64_t rows, int64_t cols, real_t stddev,
                            Rng& rng) {
  Matrix m(rows, cols);
  for (auto& x : m.data_) x = rng.Normal(0.0, stddev);
  return m;
}

Matrix Matrix::GlorotUniform(int64_t rows, int64_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const real_t a = std::sqrt(6.0 / static_cast<real_t>(rows + cols));
  for (auto& x : m.data_) x = rng.Uniform(-a, a);
  return m;
}

void Matrix::SetZero() { std::fill(data_.begin(), data_.end(), 0.0); }

void Matrix::Add(const Matrix& other) {
  KUC_CHECK_EQ(rows_, other.rows_);
  KUC_CHECK_EQ(cols_, other.cols_);
  real_t* dst = data_.data();
  const real_t* src = other.data_.data();
  const detail::RowBinaryFn add = detail::ActiveKernelSet().row_add;
  if (WantParallel(size(), kElemParallelThreshold)) {
    ParallelForRanges(size(), kElemGrain, [dst, src, add](int64_t b, int64_t e) {
      add(dst + b, src + b, e - b);
    });
    return;
  }
  add(dst, src, size());
}

void Matrix::Axpy(real_t alpha, const Matrix& other) {
  KUC_CHECK_EQ(rows_, other.rows_);
  KUC_CHECK_EQ(cols_, other.cols_);
  real_t* dst = data_.data();
  const real_t* src = other.data_.data();
  const detail::RowAxpyFn axpy = detail::ActiveKernelSet().row_axpy;
  if (WantParallel(size(), kElemParallelThreshold)) {
    ParallelForRanges(size(), kElemGrain,
                      [dst, src, alpha, axpy](int64_t b, int64_t e) {
                        axpy(dst + b, alpha, src + b, e - b);
                      });
    return;
  }
  axpy(dst, alpha, src, size());
}

void Matrix::Scale(real_t alpha) {
  real_t* dst = data_.data();
  const detail::RowScaleFn scale = detail::ActiveKernelSet().row_scale;
  if (WantParallel(size(), kElemParallelThreshold)) {
    ParallelForRanges(size(), kElemGrain, [dst, alpha, scale](int64_t b, int64_t e) {
      scale(dst + b, alpha, e - b);
    });
    return;
  }
  scale(dst, alpha, size());
}

real_t Matrix::Sum() const {
  const int64_t n = size();
  const real_t* src = data_.data();
  if (n < 2 * kReduceChunk) {
    real_t s = 0.0;
    for (int64_t i = 0; i < n; ++i) s += src[i];
    return s;
  }
  // Fixed-chunk deterministic reduction: the chunk layout (and therefore the
  // summation tree) depends only on n, so any thread count produces the
  // bitwise-identical result.
  const int64_t chunks = (n + kReduceChunk - 1) / kReduceChunk;
  std::vector<real_t> partial(chunks, 0.0);
  ParallelFor(chunks, [src, n, &partial](int64_t c) {
    const int64_t begin = c * kReduceChunk;
    const int64_t end = std::min(n, begin + kReduceChunk);
    real_t s = 0.0;
    for (int64_t i = begin; i < end; ++i) s += src[i];
    partial[c] = s;
  });
  real_t total = 0.0;
  for (int64_t c = 0; c < chunks; ++c) total += partial[c];
  return total;
}

real_t Matrix::SquaredNorm() const {
  const int64_t n = size();
  const real_t* src = data_.data();
  if (n < 2 * kReduceChunk) {
    real_t s = 0.0;
    for (int64_t i = 0; i < n; ++i) s += src[i] * src[i];
    return s;
  }
  const int64_t chunks = (n + kReduceChunk - 1) / kReduceChunk;
  std::vector<real_t> partial(chunks, 0.0);
  ParallelFor(chunks, [src, n, &partial](int64_t c) {
    const int64_t begin = c * kReduceChunk;
    const int64_t end = std::min(n, begin + kReduceChunk);
    real_t s = 0.0;
    for (int64_t i = begin; i < end; ++i) s += src[i] * src[i];
    partial[c] = s;
  });
  real_t total = 0.0;
  for (int64_t c = 0; c < chunks; ++c) total += partial[c];
  return total;
}

bool Matrix::Equals(const Matrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         data_ == other.data_;
}

real_t Matrix::MaxAbsDiff(const Matrix& other) const {
  KUC_CHECK_EQ(rows_, other.rows_);
  KUC_CHECK_EQ(cols_, other.cols_);
  real_t worst = 0.0;
  for (int64_t i = 0; i < size(); ++i) {
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  }
  return worst;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  KUC_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  MatMulDispatch(a, b, &c, MatMulVariant::kNormal);
  KUC_CHECK_FINITE(c.data(), c.size(), "tensor.MatMul");
  return c;
}

Matrix MatMulTransposedA(const Matrix& a, const Matrix& b) {
  KUC_CHECK_EQ(a.rows(), b.rows());
  Matrix c(a.cols(), b.cols());
  MatMulDispatch(a, b, &c, MatMulVariant::kTransA);
  KUC_CHECK_FINITE(c.data(), c.size(), "tensor.MatMulTransposedA");
  return c;
}

Matrix MatMulTransposedB(const Matrix& a, const Matrix& b) {
  KUC_CHECK_EQ(a.cols(), b.cols());
  Matrix c(a.rows(), b.rows());
  MatMulDispatch(a, b, &c, MatMulVariant::kTransB);
  KUC_CHECK_FINITE(c.data(), c.size(), "tensor.MatMulTransposedB");
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

}  // namespace kucnet
