#include "tensor/tape.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "tensor/kernels.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace kucnet {

namespace {

/// Minimum scalar work before an op's forward/backward loops go parallel.
constexpr int64_t kParallelWorkThreshold = int64_t{1} << 15;

/// Range size (in rows / indices) handed to each ParallelForRanges body.
constexpr int64_t kRowGrain = 512;

/// True when farming out is worthwhile. Only guards paths whose serial and
/// parallel executions are bitwise identical (independent writes, or
/// accumulation order fixed by the grouping below).
bool WantParallel(int64_t work) {
  return work >= kParallelWorkThreshold && EffectiveParallelism() > 1;
}

/// CSR-style grouping of scatter indices: `order` lists the positions of
/// `rows` stably bucketed by target row, `offsets` delimits each bucket.
/// Scatter-accumulations become independent per-target-row reductions that
/// visit contributions in their original (serial) order — so the threaded
/// scatter is bit-identical to the sequential loop, with no atomics.
struct RowGroups {
  std::vector<int64_t> offsets;  ///< size num_rows + 1
  std::vector<int64_t> order;    ///< size rows.size()
};

RowGroups GroupByRow(const std::vector<int64_t>& rows, int64_t num_rows) {
  RowGroups g;
  g.offsets.assign(num_rows + 1, 0);
  for (const int64_t r : rows) ++g.offsets[r + 1];
  for (int64_t i = 0; i < num_rows; ++i) g.offsets[i + 1] += g.offsets[i];
  g.order.resize(rows.size());
  std::vector<int64_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (size_t k = 0; k < rows.size(); ++k) {
    g.order[cursor[rows[k]]++] = static_cast<int64_t>(k);
  }
  return g;
}

/// How many indexed rows ahead to issue a software prefetch. Index-chasing
/// loads (src.row(idx[k])) are the latency bound of gather/scatter kernels;
/// eight rows ahead covers ~a memory round-trip at these row widths.
constexpr int64_t kPrefetchAhead = 8;

/// Widest row (in doubles) that the scatter path accumulates in a stack
/// buffer: 64 * 8 B = one 512-byte tile, comfortably register/L1-resident.
constexpr int64_t kLocalAccCols = 64;

/// dst->row(rows[k]) += src.row(k) for all k, deterministically: each
/// destination row receives its contributions in ascending-k order no matter
/// the thread count. With `src_rows`, contribution k reads
/// src.row((*src_rows)[k]) instead, so a gather fuses into the scatter.
///
/// Serial form is a direct scatter with software prefetch of upcoming
/// indexed rows. The parallel form groups contributions by destination row
/// (CSR counting sort) and then splits the destination index space into
/// blocks balanced by *edge count*, with boundaries aligned to destination
/// groups — a block always owns every contribution of each of its rows.
/// Equal-row-count blocks (the old scheme) degenerate on power-law scatter
/// patterns where a few hub rows hold most of the edges; equal-edge blocks
/// keep workers busy. Rows with several contributions are accumulated in a
/// cache-line-aligned stack tile so the destination row stays in registers
/// while source rows stream past (the round-trip through the tile performs
/// the same element-wise adds, so results are bit-identical to the in-place
/// loop).
void ScatterAddRows(const std::vector<int64_t>& rows, const Matrix& src,
                    Matrix* dst,
                    const std::vector<int64_t>* src_rows = nullptr) {
  const int64_t d = src.cols();
  const int64_t n = static_cast<int64_t>(rows.size());
  const detail::RowBinaryFn row_add = detail::ActiveKernelSet().row_add;
  auto src_row = [&src, src_rows](int64_t k) {
    return src.row(src_rows == nullptr ? k : (*src_rows)[k]);
  };
  if (!(WantParallel(n * d) && dst->rows() > 1)) {
    for (int64_t k = 0; k < n; ++k) {
      if (k + kPrefetchAhead < n) {
        __builtin_prefetch(dst->row(rows[k + kPrefetchAhead]));
      }
      row_add(dst->row(rows[k]), src_row(k), d);
    }
    return;
  }
  const RowGroups groups = GroupByRow(rows, dst->rows());
  // Edge-balanced blocks: cut after ~target edges, only at group boundaries.
  // Block placement affects scheduling only — every destination row's
  // accumulation chain lives entirely inside one block — so sizing blocks by
  // the current worker count cannot change results.
  const int64_t target = std::max<int64_t>(
      kRowGrain, n / (static_cast<int64_t>(EffectiveParallelism()) * 4));
  std::vector<int64_t> cuts;
  cuts.push_back(0);
  int64_t acc = 0;
  for (int64_t r = 0; r < dst->rows(); ++r) {
    acc += groups.offsets[r + 1] - groups.offsets[r];
    if (acc >= target && r + 1 < dst->rows()) {
      cuts.push_back(r + 1);
      acc = 0;
    }
  }
  cuts.push_back(dst->rows());
  ParallelFor(
      static_cast<int64_t>(cuts.size()) - 1,
      [&groups, &cuts, &src_row, dst, d, row_add](int64_t blk) {
        alignas(64) real_t tile[kLocalAccCols];
        for (int64_t r = cuts[blk]; r < cuts[blk + 1]; ++r) {
          const int64_t e0 = groups.offsets[r];
          const int64_t e1 = groups.offsets[r + 1];
          if (e0 == e1) continue;
          real_t* dstrow = dst->row(r);
          if (d <= kLocalAccCols && e1 - e0 > 1) {
            for (int64_t j = 0; j < d; ++j) tile[j] = dstrow[j];
            for (int64_t e = e0; e < e1; ++e) {
              if (e + kPrefetchAhead < e1) {
                __builtin_prefetch(src_row(groups.order[e + kPrefetchAhead]));
              }
              row_add(tile, src_row(groups.order[e]), d);
            }
            for (int64_t j = 0; j < d; ++j) dstrow[j] = tile[j];
          } else {
            for (int64_t e = e0; e < e1; ++e) {
              if (e + kPrefetchAhead < e1) {
                __builtin_prefetch(src_row(groups.order[e + kPrefetchAhead]));
              }
              row_add(dstrow, src_row(groups.order[e]), d);
            }
          }
        }
      });
}

/// The range form Tape::UnaryElementwise takes, of a per-element function.
template <typename F>
auto EachElement(F f) {
  return [f](real_t* dst, const real_t* src, int64_t n) {
    for (int64_t i = 0; i < n; ++i) dst[i] = f(src[i]);
  };
}

}  // namespace

Var Tape::NewNode(Matrix value, bool needs_grad,
                  std::function<void(Tape&)> backward) {
  Node n;
  n.value = std::move(value);
  n.needs_grad = needs_grad;
  n.backward = std::move(backward);
  nodes_.push_back(std::move(n));
  return Var{static_cast<int32_t>(nodes_.size() - 1)};
}

Tape::Node& Tape::node(Var v) {
  KUC_CHECK(v.valid());
  KUC_CHECK_LT(v.id, static_cast<int32_t>(nodes_.size()));
  return nodes_[v.id];
}

const Tape::Node& Tape::node(Var v) const {
  KUC_CHECK(v.valid());
  KUC_CHECK_LT(v.id, static_cast<int32_t>(nodes_.size()));
  return nodes_[v.id];
}

const Matrix& Tape::value(Var v) const { return node(v).value; }
const Matrix& Tape::grad(Var v) const { return node(v).grad; }

void Tape::AccumulateParamDense(Parameter* p, const Matrix& g) {
  if (deferred_param_grads_) {
    deferred_grads_.push_back({p, /*dense=*/true, {}, g});
    return;
  }
  p->AccumulateDense(g);
}

void Tape::AccumulateParamRows(Parameter* p, const std::vector<int64_t>& rows,
                               const Matrix& g) {
  if (deferred_param_grads_) {
    deferred_grads_.push_back({p, /*dense=*/false, rows, g});
    return;
  }
  p->AccumulateRows(rows, g);
}

void Tape::FlushParamGrads() {
  for (DeferredGrad& d : deferred_grads_) {
    if (d.dense) {
      d.param->AccumulateDense(d.grad);
    } else {
      d.param->AccumulateRows(d.rows, d.grad);
    }
  }
  deferred_grads_.clear();
}

// ---- Leaves ----------------------------------------------------------------

Var Tape::Constant(Matrix value) {
  return NewNode(std::move(value), /*needs_grad=*/false, nullptr);
}

Var Tape::Param(Parameter* p) {
  KUC_CHECK(p != nullptr);
  Matrix value = p->value();
  Var out = NewNode(std::move(value), /*needs_grad=*/true, nullptr);
  const int32_t id = out.id;
  nodes_[id].backward = [id, p](Tape& t) {
    t.AccumulateParamDense(p, t.nodes_[id].grad);
  };
  return out;
}

Var Tape::GatherParam(Parameter* p, std::vector<int64_t> rows) {
  KUC_CHECK(p != nullptr);
  const int64_t d = p->cols();
  Matrix value(static_cast<int64_t>(rows.size()), d);
  for (size_t k = 0; k < rows.size(); ++k) {
    KUC_CHECK_GE(rows[k], 0);
    KUC_CHECK_LT(rows[k], p->rows());
    const real_t* src = p->value().row(rows[k]);
    real_t* dst = value.row(static_cast<int64_t>(k));
    for (int64_t j = 0; j < d; ++j) dst[j] = src[j];
  }
  Var out = NewNode(std::move(value), /*needs_grad=*/true, nullptr);
  const int32_t id = out.id;
  nodes_[id].backward = [id, p, rows = std::move(rows)](Tape& t) {
    t.AccumulateParamRows(p, rows, t.nodes_[id].grad);
  };
  return out;
}

// ---- Linear algebra --------------------------------------------------------

Var Tape::MatMul(Var a, Var b) {
  Matrix y = kucnet::MatMul(value(a), value(b));
  const bool ng = NeedsGrad(a) || NeedsGrad(b);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, a, b](Tape& t) {
    const Matrix& dy = t.nodes_[id].grad;
    if (t.NeedsGrad(a)) {
      t.node(a).grad.Add(MatMulTransposedB(dy, t.value(b)));
    }
    if (t.NeedsGrad(b)) {
      t.node(b).grad.Add(MatMulTransposedA(t.value(a), dy));
    }
  };
  return out;
}

Var Tape::Add(Var a, Var b) {
  KUC_CHECK_EQ(value(a).rows(), value(b).rows());
  KUC_CHECK_EQ(value(a).cols(), value(b).cols());
  Matrix y = value(a);
  y.Add(value(b));
  const bool ng = NeedsGrad(a) || NeedsGrad(b);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, a, b](Tape& t) {
    const Matrix& dy = t.nodes_[id].grad;
    if (t.NeedsGrad(a)) t.node(a).grad.Add(dy);
    if (t.NeedsGrad(b)) t.node(b).grad.Add(dy);
  };
  return out;
}

Var Tape::Sub(Var a, Var b) {
  KUC_CHECK_EQ(value(a).rows(), value(b).rows());
  KUC_CHECK_EQ(value(a).cols(), value(b).cols());
  Matrix y = value(a);
  y.Axpy(-1.0, value(b));
  const bool ng = NeedsGrad(a) || NeedsGrad(b);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, a, b](Tape& t) {
    const Matrix& dy = t.nodes_[id].grad;
    if (t.NeedsGrad(a)) t.node(a).grad.Add(dy);
    if (t.NeedsGrad(b)) t.node(b).grad.Axpy(-1.0, dy);
  };
  return out;
}

Var Tape::Hadamard(Var a, Var b) {
  const Matrix& av = value(a);
  const Matrix& bv = value(b);
  KUC_CHECK_EQ(av.rows(), bv.rows());
  KUC_CHECK_EQ(av.cols(), bv.cols());
  Matrix y(av.rows(), av.cols());
  {
    real_t* dst = y.data();
    const real_t* pa = av.data();
    const real_t* pb = bv.data();
    const int64_t n = av.size();
    if (WantParallel(n)) {
      ParallelForRanges(n, kParallelWorkThreshold,
                        [dst, pa, pb](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) dst[i] = pa[i] * pb[i];
                        });
    } else {
      for (int64_t i = 0; i < n; ++i) dst[i] = pa[i] * pb[i];
    }
  }
  const bool ng = NeedsGrad(a) || NeedsGrad(b);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, a, b](Tape& t) {
    const Matrix& dy = t.nodes_[id].grad;
    const int64_t n = dy.size();
    if (t.NeedsGrad(a)) {
      real_t* da = t.node(a).grad.data();
      const real_t* pb = t.value(b).data();
      const real_t* g = dy.data();
      if (WantParallel(n)) {
        ParallelForRanges(n, kParallelWorkThreshold,
                          [da, pb, g](int64_t lo, int64_t hi) {
                            for (int64_t i = lo; i < hi; ++i) da[i] += g[i] * pb[i];
                          });
      } else {
        for (int64_t i = 0; i < n; ++i) da[i] += g[i] * pb[i];
      }
    }
    if (t.NeedsGrad(b)) {
      real_t* db = t.node(b).grad.data();
      const real_t* pa = t.value(a).data();
      const real_t* g = dy.data();
      if (WantParallel(n)) {
        ParallelForRanges(n, kParallelWorkThreshold,
                          [db, pa, g](int64_t lo, int64_t hi) {
                            for (int64_t i = lo; i < hi; ++i) db[i] += g[i] * pa[i];
                          });
      } else {
        for (int64_t i = 0; i < n; ++i) db[i] += g[i] * pa[i];
      }
    }
  };
  return out;
}

Var Tape::ScalarMul(Var a, real_t c) {
  Matrix y = value(a);
  y.Scale(c);
  const bool ng = NeedsGrad(a);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, a, c](Tape& t) {
    t.node(a).grad.Axpy(c, t.nodes_[id].grad);
  };
  return out;
}

Var Tape::AddRowBroadcast(Var a, Var row) {
  const Matrix& av = value(a);
  const Matrix& rv = value(row);
  KUC_CHECK_EQ(rv.rows(), 1);
  KUC_CHECK_EQ(av.cols(), rv.cols());
  Matrix y = av;
  const int64_t d = y.cols();
  auto add_rows = [&y, &rv, d](int64_t lo, int64_t hi) {
    const real_t* src = rv.row(0);
    for (int64_t i = lo; i < hi; ++i) {
      real_t* dst = y.row(i);
      for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
    }
  };
  if (WantParallel(y.size())) {
    ParallelForRanges(y.rows(), kRowGrain, add_rows);
  } else {
    add_rows(0, y.rows());
  }
  const bool ng = NeedsGrad(a) || NeedsGrad(row);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, a, row](Tape& t) {
    const Matrix& dy = t.nodes_[id].grad;
    if (t.NeedsGrad(a)) t.node(a).grad.Add(dy);
    if (t.NeedsGrad(row)) {
      // Column-sum reduction into one row: kept sequential so the
      // accumulation order never depends on the thread count.
      Matrix& dr = t.node(row).grad;
      for (int64_t i = 0; i < dy.rows(); ++i) {
        const real_t* src = dy.row(i);
        real_t* dst = dr.row(0);
        for (int64_t j = 0; j < dy.cols(); ++j) dst[j] += src[j];
      }
    }
  };
  return out;
}

// ---- Elementwise nonlinearities ---------------------------------------------

template <typename Forward, typename Derivative>
Var Tape::UnaryElementwise(Var a, Forward forward, Derivative df) {
  const Matrix& av = value(a);
  Matrix y(av.rows(), av.cols());
  {
    const int64_t n = av.size();
    real_t* dst = y.data();
    const real_t* src = av.data();
    if (WantParallel(n)) {
      ParallelForRanges(n, kParallelWorkThreshold,
                        [dst, src, &forward](int64_t lo, int64_t hi) {
                          forward(dst + lo, src + lo, hi - lo);
                        });
    } else {
      forward(dst, src, n);
    }
  }
  const bool ng = NeedsGrad(a);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, a, df](Tape& t) {
    const Matrix& dy = t.nodes_[id].grad;
    const Matrix& x = t.value(a);
    const Matrix& yv = t.nodes_[id].value;
    Matrix& da = t.node(a).grad;
    const int64_t n = dy.size();
    real_t* pda = da.data();
    const real_t* g = dy.data();
    const real_t* px = x.data();
    const real_t* py = yv.data();
    if (WantParallel(n)) {
      ParallelForRanges(
          n, kParallelWorkThreshold,
          [pda, g, px, py, &df](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) pda[i] += g[i] * df(px[i], py[i]);
          });
    } else {
      for (int64_t i = 0; i < n; ++i) pda[i] += g[i] * df(px[i], py[i]);
    }
  };
  return out;
}

Var Tape::Relu(Var a) {
  // The kernel's max(x, +0) is bitwise x > 0 ? x : 0; the derivative is the
  // comparison itself as 1.0 or 0.0, so neither pass branches on the data.
  return UnaryElementwise(a, detail::ActiveKernelSet().row_relu,
                          [](real_t x, real_t) {
                            return static_cast<real_t>(x > 0.0);
                          });
}

Var Tape::LeakyRelu(Var a, real_t slope) {
  return UnaryElementwise(
      a, EachElement([slope](real_t x) { return x > 0.0 ? x : slope * x; }),
      [slope](real_t x, real_t) { return x > 0.0 ? 1.0 : slope; });
}

Var Tape::Tanh(Var a) {
  return UnaryElementwise(a, EachElement([](real_t x) { return std::tanh(x); }),
                          [](real_t, real_t y) { return 1.0 - y * y; });
}

Var Tape::Sigmoid(Var a) {
  return UnaryElementwise(
      a, EachElement([](real_t x) {
        return x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                        : std::exp(x) / (1.0 + std::exp(x));
      }),
      [](real_t, real_t y) { return y * (1.0 - y); });
}

Var Tape::Exp(Var a) {
  return UnaryElementwise(a, EachElement([](real_t x) { return std::exp(x); }),
                          [](real_t, real_t y) { return y; });
}

Var Tape::Softplus(Var a) {
  return UnaryElementwise(
      a, EachElement([](real_t x) {
        // Stable: max(x, 0) + log1p(exp(-|x|)).
        return (x > 0.0 ? x : 0.0) + std::log1p(std::exp(-std::abs(x)));
      }),
      [](real_t x, real_t) {
        return x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                        : std::exp(x) / (1.0 + std::exp(x));
      });
}

Var Tape::Reciprocal(Var a) {
  return UnaryElementwise(a, EachElement([](real_t x) { return 1.0 / x; }),
                          [](real_t, real_t y) { return -y * y; });
}

Var Tape::Square(Var a) {
  return UnaryElementwise(a, EachElement([](real_t x) { return x * x; }),
                          [](real_t x, real_t) { return 2.0 * x; });
}

Var Tape::Dropout(Var a, real_t rate, bool training, Rng& rng) {
  if (!training || rate <= 0.0) return a;
  KUC_CHECK_LT(rate, 1.0);
  const Matrix& av = value(a);
  const real_t keep = 1.0 - rate;
  auto mask = std::make_shared<std::vector<real_t>>(av.size());
  Matrix y(av.rows(), av.cols());
  // Mask generation consumes the rng sequentially and stays serial; only the
  // (already element-independent) backward is threaded.
  for (int64_t i = 0; i < av.size(); ++i) {
    const real_t m = rng.Bernoulli(keep) ? 1.0 / keep : 0.0;
    (*mask)[i] = m;
    y.data()[i] = av.data()[i] * m;
  }
  const bool ng = NeedsGrad(a);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, a, mask](Tape& t) {
    const Matrix& dy = t.nodes_[id].grad;
    Matrix& da = t.node(a).grad;
    const int64_t n = dy.size();
    real_t* pda = da.data();
    const real_t* g = dy.data();
    const real_t* m = mask->data();
    if (WantParallel(n)) {
      ParallelForRanges(n, kParallelWorkThreshold,
                        [pda, g, m](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) pda[i] += g[i] * m[i];
                        });
    } else {
      for (int64_t i = 0; i < n; ++i) pda[i] += g[i] * m[i];
    }
  };
  return out;
}

// ---- Indexing / aggregation --------------------------------------------------

Var Tape::Gather(Var a, std::vector<int64_t> idx) {
  const Matrix& av = value(a);
  const int64_t d = av.cols();
  const int64_t k_count = static_cast<int64_t>(idx.size());
  for (int64_t k = 0; k < k_count; ++k) {
    KUC_CHECK_GE(idx[k], 0);
    KUC_CHECK_LT(idx[k], av.rows());
  }
  Matrix y(k_count, d);
  // Forward: each output row is written exactly once — embarrassingly
  // parallel and trivially deterministic. Prefetch upcoming indexed source
  // rows; the index chain, not the copy, is the latency bound.
  const detail::RowBinaryFn row_copy = detail::ActiveKernelSet().row_copy;
  auto gather_rows = [&y, &av, &idx, d, row_copy](int64_t lo, int64_t hi) {
    for (int64_t k = lo; k < hi; ++k) {
      if (k + kPrefetchAhead < hi) {
        __builtin_prefetch(av.row(idx[k + kPrefetchAhead]));
      }
      row_copy(y.row(k), av.row(idx[k]), d);
    }
  };
  if (WantParallel(k_count * d)) {
    ParallelForRanges(k_count, kRowGrain, gather_rows);
  } else {
    gather_rows(0, k_count);
  }
  const bool ng = NeedsGrad(a);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, a, idx = std::move(idx)](Tape& t) {
    const Matrix& dy = t.nodes_[id].grad;
    Matrix& da = t.node(a).grad;
    // Backward is a scatter-add: da.row(idx[k]) += dy.row(k), grouped and
    // edge-balanced by ScatterAddRows — bit-identical to the serial loop at
    // any thread count, no atomics.
    ScatterAddRows(idx, dy, &da);
  };
  return out;
}

Var Tape::SegmentSum(Var a, std::vector<int64_t> seg, int64_t num_segments) {
  const Matrix& av = value(a);
  KUC_CHECK_EQ(static_cast<int64_t>(seg.size()), av.rows());
  const int64_t d = av.cols();
  const int64_t edges = static_cast<int64_t>(seg.size());
  for (int64_t k = 0; k < edges; ++k) {
    KUC_CHECK_GE(seg[k], 0);
    KUC_CHECK_LT(seg[k], num_segments);
  }
  Matrix y(num_segments, d);
  // Forward is a scatter-add over segments, grouped and edge-balanced by
  // ScatterAddRows: each segment sums its member rows in original edge
  // order, bit-identical to the sequential loop at any thread count.
  ScatterAddRows(seg, av, &y);
  const bool ng = NeedsGrad(a);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, a, seg = std::move(seg)](Tape& t) {
    const Matrix& dy = t.nodes_[id].grad;
    Matrix& da = t.node(a).grad;
    const int64_t dd = dy.cols();
    const int64_t n = static_cast<int64_t>(seg.size());
    // Backward is a gather: da.row(k) += dy.row(seg[k]) — independent
    // writes; prefetch the indexed gradient rows ahead of the adds.
    const detail::RowBinaryFn row_add = detail::ActiveKernelSet().row_add;
    auto scatter_back = [&da, &dy, &seg, dd, row_add](int64_t lo, int64_t hi) {
      for (int64_t k = lo; k < hi; ++k) {
        if (k + kPrefetchAhead < hi) {
          __builtin_prefetch(dy.row(seg[k + kPrefetchAhead]));
        }
        row_add(da.row(k), dy.row(seg[k]), dd);
      }
    };
    if (WantParallel(n * dd)) {
      ParallelForRanges(n, kRowGrain, scatter_back);
    } else {
      scatter_back(0, n);
    }
  };
  return out;
}

Var Tape::GatherSegmentSum(Var messages, std::vector<int64_t> message_of,
                           std::vector<int64_t> dst_index, int64_t num_dst) {
  const Matrix& mv = value(messages);
  KUC_CHECK_EQ(message_of.size(), dst_index.size());
  const int64_t edges = static_cast<int64_t>(dst_index.size());
  for (int64_t e = 0; e < edges; ++e) {
    KUC_CHECK_GE(message_of[e], 0);
    KUC_CHECK_LT(message_of[e], mv.rows());
    KUC_CHECK_GE(dst_index[e], 0);
    KUC_CHECK_LT(dst_index[e], num_dst);
  }
  Matrix y(num_dst, mv.cols());
  // y.row(dst_index[e]) += messages.row(message_of[e]): each destination
  // sums its edges' messages in edge order, the accumulation chain of
  // SegmentSum(Gather(messages, message_of), dst_index), without the
  // per-edge copy.
  ScatterAddRows(dst_index, mv, &y, &message_of);
  const bool ng = NeedsGrad(messages);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, messages, message_of = std::move(message_of),
                         dst_index = std::move(dst_index)](Tape& t) {
    // dmessages.row(message_of[e]) += dy.row(dst_index[e]), each message
    // row in edge order: the same grouped, edge-balanced scatter as the
    // forward with the two index lists swapped.
    ScatterAddRows(message_of, t.nodes_[id].grad, &t.node(messages).grad,
                   &dst_index);
  };
  return out;
}

Var Tape::RowScale(Var a, Var s) {
  const Matrix& av = value(a);
  const Matrix& sv = value(s);
  KUC_CHECK_EQ(sv.cols(), 1);
  KUC_CHECK_EQ(sv.rows(), av.rows());
  Matrix y = av;
  auto scale_rows = [&y, &sv](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const real_t c = sv.at(i, 0);
      real_t* dst = y.row(i);
      for (int64_t j = 0; j < y.cols(); ++j) dst[j] *= c;
    }
  };
  if (WantParallel(y.size())) {
    ParallelForRanges(y.rows(), kRowGrain, scale_rows);
  } else {
    scale_rows(0, y.rows());
  }
  const bool ng = NeedsGrad(a) || NeedsGrad(s);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, a, s](Tape& t) {
    const Matrix& dy = t.nodes_[id].grad;
    const Matrix& av2 = t.value(a);
    const Matrix& sv2 = t.value(s);
    if (t.NeedsGrad(a)) {
      Matrix& da = t.node(a).grad;
      auto body = [&da, &dy, &sv2](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const real_t c = sv2.at(i, 0);
          const real_t* src = dy.row(i);
          real_t* dst = da.row(i);
          for (int64_t j = 0; j < dy.cols(); ++j) dst[j] += c * src[j];
        }
      };
      if (WantParallel(dy.size())) {
        ParallelForRanges(dy.rows(), kRowGrain, body);
      } else {
        body(0, dy.rows());
      }
    }
    if (t.NeedsGrad(s)) {
      Matrix& ds = t.node(s).grad;
      auto body = [&ds, &dy, &av2](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const real_t* gy = dy.row(i);
          const real_t* xa = av2.row(i);
          real_t dot = 0.0;
          for (int64_t j = 0; j < dy.cols(); ++j) dot += gy[j] * xa[j];
          ds.at(i, 0) += dot;
        }
      };
      if (WantParallel(dy.size())) {
        ParallelForRanges(dy.rows(), kRowGrain, body);
      } else {
        body(0, dy.rows());
      }
    }
  };
  return out;
}

Var Tape::RowDot(Var a, Var b) {
  const Matrix& av = value(a);
  const Matrix& bv = value(b);
  KUC_CHECK_EQ(av.rows(), bv.rows());
  KUC_CHECK_EQ(av.cols(), bv.cols());
  Matrix y(av.rows(), 1);
  auto dot_rows = [&y, &av, &bv](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const real_t* ra = av.row(i);
      const real_t* rb = bv.row(i);
      real_t dot = 0.0;
      for (int64_t j = 0; j < av.cols(); ++j) dot += ra[j] * rb[j];
      y.at(i, 0) = dot;
    }
  };
  if (WantParallel(av.size())) {
    ParallelForRanges(av.rows(), kRowGrain, dot_rows);
  } else {
    dot_rows(0, av.rows());
  }
  const bool ng = NeedsGrad(a) || NeedsGrad(b);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, a, b](Tape& t) {
    const Matrix& dy = t.nodes_[id].grad;
    const Matrix& av2 = t.value(a);
    const Matrix& bv2 = t.value(b);
    if (t.NeedsGrad(a)) {
      Matrix& da = t.node(a).grad;
      auto body = [&da, &dy, &bv2, &av2](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const real_t g = dy.at(i, 0);
          const real_t* rb = bv2.row(i);
          real_t* dst = da.row(i);
          for (int64_t j = 0; j < av2.cols(); ++j) dst[j] += g * rb[j];
        }
      };
      if (WantParallel(av2.size())) {
        ParallelForRanges(av2.rows(), kRowGrain, body);
      } else {
        body(0, av2.rows());
      }
    }
    if (t.NeedsGrad(b)) {
      Matrix& db = t.node(b).grad;
      auto body = [&db, &dy, &av2, &bv2](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const real_t g = dy.at(i, 0);
          const real_t* ra = av2.row(i);
          real_t* dst = db.row(i);
          for (int64_t j = 0; j < bv2.cols(); ++j) dst[j] += g * ra[j];
        }
      };
      if (WantParallel(bv2.size())) {
        ParallelForRanges(bv2.rows(), kRowGrain, body);
      } else {
        body(0, bv2.rows());
      }
    }
  };
  return out;
}

Var Tape::RowSum(Var a) {
  const Matrix& av = value(a);
  Matrix y(av.rows(), 1);
  auto sum_rows = [&y, &av](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const real_t* src = av.row(i);
      real_t s = 0.0;
      for (int64_t j = 0; j < av.cols(); ++j) s += src[j];
      y.at(i, 0) = s;
    }
  };
  if (WantParallel(av.size())) {
    ParallelForRanges(av.rows(), kRowGrain, sum_rows);
  } else {
    sum_rows(0, av.rows());
  }
  const bool ng = NeedsGrad(a);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, a](Tape& t) {
    const Matrix& dy = t.nodes_[id].grad;
    Matrix& da = t.node(a).grad;
    auto body = [&da, &dy](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        const real_t g = dy.at(i, 0);
        real_t* dst = da.row(i);
        for (int64_t j = 0; j < da.cols(); ++j) dst[j] += g;
      }
    };
    if (WantParallel(da.size())) {
      ParallelForRanges(da.rows(), kRowGrain, body);
    } else {
      body(0, da.rows());
    }
  };
  return out;
}

Var Tape::Sum(Var a) {
  Matrix y(1, 1);
  y.at(0, 0) = value(a).Sum();
  const bool ng = NeedsGrad(a);
  Var out = NewNode(std::move(y), ng, nullptr);
  if (!ng) return out;
  const int32_t id = out.id;
  nodes_[id].backward = [id, a](Tape& t) {
    const real_t g = t.nodes_[id].grad.at(0, 0);
    Matrix& da = t.node(a).grad;
    real_t* dst = da.data();
    const int64_t n = da.size();
    if (WantParallel(n)) {
      ParallelForRanges(n, kParallelWorkThreshold,
                        [dst, g](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) dst[i] += g;
                        });
    } else {
      for (int64_t i = 0; i < n; ++i) dst[i] += g;
    }
  };
  return out;
}

Var Tape::Mean(Var a) {
  const int64_t n = value(a).size();
  KUC_CHECK_GT(n, 0);
  return ScalarMul(Sum(a), 1.0 / static_cast<real_t>(n));
}

Var Tape::BprLoss(Var pos, Var neg) {
  KUC_CHECK_EQ(value(pos).cols(), 1);
  KUC_CHECK_EQ(value(neg).cols(), 1);
  return Sum(Softplus(Sub(neg, pos)));
}

// ---- Execution ----------------------------------------------------------------

void Tape::Backward(Var loss) {
  Node& top = node(loss);
  KUC_CHECK_EQ(top.value.rows(), 1);
  KUC_CHECK_EQ(top.value.cols(), 1);
  // Allocate gradient buffers for all grad-requiring nodes.
  for (auto& n : nodes_) {
    if (n.needs_grad) n.grad = Matrix::Zeros(n.value.rows(), n.value.cols());
  }
  if (!top.needs_grad) return;  // Loss does not depend on any parameter.
  top.grad.at(0, 0) = 1.0;
  // Nodes were appended in topological order; visit in reverse.
  for (int64_t i = static_cast<int64_t>(nodes_.size()) - 1; i >= 0; --i) {
    Node& n = nodes_[i];
    if (n.needs_grad && n.backward) n.backward(*this);
  }
}

}  // namespace kucnet
