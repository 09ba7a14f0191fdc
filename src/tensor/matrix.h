#ifndef KUCNET_TENSOR_MATRIX_H_
#define KUCNET_TENSOR_MATRIX_H_

#include <cstdint>
#include <vector>

#include "util/rng.h"

/// \file
/// Dense row-major matrix of doubles: the value type of the autograd tape.
///
/// The matmul family runs on register-tiled, cache-blocked micro-kernels
/// that are SIMD-vectorized behind a runtime CPUID dispatch (see
/// tensor/simd.h); above a size threshold work is threaded over the
/// process-wide pool (see util/thread_pool.h). In the default deterministic
/// kernel mode execution is bit-reproducible across thread counts AND SIMD
/// levels: each output element keeps a single ascending-k accumulation chain
/// with separate mul+add rounding, threading splits only independent output
/// row tiles, and reductions (Sum, SquaredNorm) always use a fixed-chunk
/// summation tree whose shape depends only on the input size. The opt-in
/// fast mode (KUCNET_FAST_KERNELS=1) lets kernels fuse multiply-adds for
/// extra throughput at the cost of differently-rounded (ULP-bounded)
/// results. Doubles keep finite-difference gradient checks tight.

namespace kucnet {

/// Scalar type used throughout the tensor stack.
using real_t = double;

/// Minimum multiply-add count (m*n*k; m*k for a one-column product) before
/// a matmul is worth farming out to the pool: the measured serial-vs-
/// threaded crossover on a 4-worker pool whose workers sleep between calls,
/// as they do between a forward's layers. Below it, waking the pool costs
/// more than splitting saves (350x32x32, one forward layer, ran 0.82x
/// threaded; 4096x32x32 broke even; 8192x32x32 won 1.23x), so a single
/// user's forward never forks and smaller products always run serially.
inline constexpr int64_t kMatMulParallelFlops = int64_t{1} << 22;

/// Dense row-major matrix. Copyable and movable; copies are deep.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Uninitialized-to-zero matrix of the given shape.
  Matrix(int64_t rows, int64_t cols);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  /// All-zero matrix.
  static Matrix Zeros(int64_t rows, int64_t cols);

  /// Matrix filled with `value`.
  static Matrix Filled(int64_t rows, int64_t cols, real_t value);

  /// I.i.d. N(0, stddev^2) entries.
  static Matrix RandomNormal(int64_t rows, int64_t cols, real_t stddev,
                             Rng& rng);

  /// Glorot/Xavier-uniform initialization: U(-a, a), a = sqrt(6/(r+c)).
  static Matrix GlorotUniform(int64_t rows, int64_t cols, Rng& rng);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  real_t& at(int64_t r, int64_t c) { return data_[r * cols_ + c]; }
  real_t at(int64_t r, int64_t c) const { return data_[r * cols_ + c]; }

  real_t* data() { return data_.data(); }
  const real_t* data() const { return data_.data(); }

  real_t* row(int64_t r) { return data_.data() + r * cols_; }
  const real_t* row(int64_t r) const { return data_.data() + r * cols_; }

  /// Sets every entry to zero.
  void SetZero();

  /// this += other (same shape).
  void Add(const Matrix& other);

  /// this += alpha * other (same shape).
  void Axpy(real_t alpha, const Matrix& other);

  /// this *= alpha.
  void Scale(real_t alpha);

  /// Sum of all entries.
  real_t Sum() const;

  /// Frobenius norm squared.
  real_t SquaredNorm() const;

  /// True if shapes and all entries match exactly.
  bool Equals(const Matrix& other) const;

  /// Max absolute entry-wise difference; requires same shape.
  real_t MaxAbsDiff(const Matrix& other) const;

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<real_t> data_;
};

/// C = A * B. Shapes must agree (A: n x k, B: k x m).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B (A: k x n, B: k x m -> C: n x m), without materializing A^T.
Matrix MatMulTransposedA(const Matrix& a, const Matrix& b);

/// C = A * B^T (A: n x k, B: m x k -> C: n x m), without materializing B^T.
Matrix MatMulTransposedB(const Matrix& a, const Matrix& b);

/// Explicit transpose.
Matrix Transpose(const Matrix& a);

}  // namespace kucnet

#endif  // KUCNET_TENSOR_MATRIX_H_
