#ifndef KUCNET_TENSOR_TAPE_H_
#define KUCNET_TENSOR_TAPE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/parameter.h"
#include "util/rng.h"

/// \file
/// Reverse-mode automatic differentiation over `Matrix` values.
///
/// A `Tape` records operations as they execute (define-by-run). Calling
/// `Backward(loss)` propagates gradients to every recorded node and
/// accumulates them into the bound `Parameter`s. The op set is tailored to
/// the models in this library: dense layers, embedding gathers, and the
/// gather / segment-sum pair that implements GNN message passing.

namespace kucnet {

/// Opaque handle to a tape node.
struct Var {
  int32_t id = -1;
  bool valid() const { return id >= 0; }
};

/// Define-by-run gradient tape. One tape per forward/backward pass; create a
/// fresh tape for each training step. Not thread-safe.
class Tape {
 public:
  Tape() = default;

  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // ---- Leaves ------------------------------------------------------------

  /// Constant leaf (no gradient flows into it).
  Var Constant(Matrix value);

  /// Dense trainable leaf: value is copied in; after Backward the node's
  /// gradient is accumulated into `p`.
  Var Param(Parameter* p);

  /// Row-gather trainable leaf: node value is `p->value()` at `rows`;
  /// gradients are scatter-accumulated into those rows of `p` (sparse).
  Var GatherParam(Parameter* p, std::vector<int64_t> rows);

  // ---- Linear algebra ----------------------------------------------------

  Var MatMul(Var a, Var b);
  Var Add(Var a, Var b);   ///< Same shape.
  Var Sub(Var a, Var b);   ///< Same shape.
  Var Hadamard(Var a, Var b);
  Var ScalarMul(Var a, real_t c);
  /// Adds a 1 x d row vector to every row of an n x d matrix.
  Var AddRowBroadcast(Var a, Var row);

  // ---- Elementwise nonlinearities ----------------------------------------

  Var Relu(Var a);
  Var LeakyRelu(Var a, real_t slope);
  Var Tanh(Var a);
  Var Sigmoid(Var a);
  Var Exp(Var a);
  /// log(1 + e^x), numerically stable.
  Var Softplus(Var a);
  Var Reciprocal(Var a);
  Var Square(Var a);

  /// Inverted dropout; identity when `rate` == 0 or `training` is false.
  Var Dropout(Var a, real_t rate, bool training, Rng& rng);

  // ---- Indexing / aggregation (GNN primitives) ----------------------------

  /// Gathers rows: out.row(k) = a.row(idx[k]).
  Var Gather(Var a, std::vector<int64_t> idx);

  /// out.row(seg[k]) += a.row(k); output has `num_segments` rows. Segments
  /// with no members are zero (this implements Eq. (5)'s neighborhood sum).
  Var SegmentSum(Var a, std::vector<int64_t> seg, int64_t num_segments);

  /// Fused SegmentSum(Gather(messages, message_of), dst_index, num_dst):
  /// out.row(dst_index[e]) += messages.row(message_of[e]) for every edge e,
  /// in edge order, so the forward equals the unfused pair bitwise. The
  /// backward adds each destination's gradient to its edge's message row,
  /// in edge order. Implements Eq. (5) over messages shared by several
  /// edges without materializing one row per edge.
  Var GatherSegmentSum(Var messages, std::vector<int64_t> message_of,
                       std::vector<int64_t> dst_index, int64_t num_dst);

  /// Scales row i of `a` (n x d) by s(i, 0) where `s` is n x 1. This applies
  /// per-edge attention weights (Eq. (6)).
  Var RowScale(Var a, Var s);

  /// Row-wise dot product of two n x d matrices -> n x 1.
  Var RowDot(Var a, Var b);

  /// Sums each row: n x d -> n x 1.
  Var RowSum(Var a);

  /// Sums everything: -> 1 x 1.
  Var Sum(Var a);

  /// Mean of everything: -> 1 x 1.
  Var Mean(Var a);

  // ---- Losses -------------------------------------------------------------

  /// BPR loss (Eq. 14): sum_k softplus(neg_k - pos_k), for n x 1 scores.
  Var BprLoss(Var pos, Var neg);

  // ---- Execution -----------------------------------------------------------

  /// Runs reverse accumulation from `loss` (must be 1 x 1) and pushes
  /// gradients into all bound parameters (or, in deferred mode, into a
  /// per-tape buffer — see set_deferred_param_grads).
  void Backward(Var loss);

  /// When enabled (before Backward), parameter gradients are recorded in a
  /// per-tape buffer instead of being accumulated into the shared
  /// `Parameter`s. Several tapes can then run Backward concurrently with no
  /// cross-tape interleaving; calling FlushParamGrads() on each tape in a
  /// fixed order afterwards makes the shared accumulation order — and thus
  /// the floating-point result — independent of thread scheduling.
  void set_deferred_param_grads(bool deferred) {
    deferred_param_grads_ = deferred;
  }

  /// Applies (and clears) the gradients buffered by a deferred Backward to
  /// their parameters, in recording order.
  void FlushParamGrads();

  /// Value of a node.
  const Matrix& value(Var v) const;

  /// Gradient of a node; valid after Backward().
  const Matrix& grad(Var v) const;

  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }

 private:
  struct Node {
    Matrix value;
    Matrix grad;
    bool needs_grad = false;
    // Propagates this node's grad to its inputs / bound parameter.
    std::function<void(Tape&)> backward;
  };

  /// One buffered parameter-gradient contribution (deferred mode).
  struct DeferredGrad {
    Parameter* param = nullptr;
    bool dense = false;          ///< true: whole-matrix; false: row-sparse
    std::vector<int64_t> rows;   ///< target rows when !dense
    Matrix grad;
  };

  Var NewNode(Matrix value, bool needs_grad,
              std::function<void(Tape&)> backward);
  Node& node(Var v);
  const Node& node(Var v) const;
  bool NeedsGrad(Var v) const { return node(v).needs_grad; }

  /// Routes a parameter gradient either into `p` directly or into the
  /// deferred buffer, depending on the mode.
  void AccumulateParamDense(Parameter* p, const Matrix& g);
  void AccumulateParamRows(Parameter* p, const std::vector<int64_t>& rows,
                           const Matrix& g);

  /// Elementwise unary op: `forward(dst, src, n)` writes y = f(x) over a
  /// range and `df(x, y)` is the derivative. Both are template parameters
  /// (defined in tape.cc, the only caller), so the loops inline them.
  template <typename Forward, typename Derivative>
  Var UnaryElementwise(Var a, Forward forward, Derivative df);

  std::vector<Node> nodes_;
  std::vector<DeferredGrad> deferred_grads_;
  bool deferred_param_grads_ = false;
};

}  // namespace kucnet

#endif  // KUCNET_TENSOR_TAPE_H_
