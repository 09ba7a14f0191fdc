#ifndef KUCNET_TESTING_ORACLE_H_
#define KUCNET_TESTING_ORACLE_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/kucnet.h"
#include "graph/ckg.h"
#include "graph/compgraph.h"
#include "graph/dynamic_ckg.h"
#include "tensor/matrix.h"
#include "tensor/tape.h"

/// \file
/// Differential-testing oracles: deliberately naive, single-threaded scalar
/// reference implementations of every optimized kernel and ranking routine
/// in the library. Each oracle is written for obviousness, not speed — a
/// straight transcription of the math — so that "optimized == oracle" is
/// evidence of correctness rather than of shared bugs.
///
/// Tolerance policy (see DESIGN.md §7):
///  - integer / topology outputs (top-N index lists, gather/segment
///    destinations, push queue order): exact equality;
///  - float kernels whose optimized accumulation order matches the naive
///    order bit-for-bit (matmul family, elementwise, gather/segment-sum,
///    forward push): 0 ULP, except ±0 which compare equal;
///  - float reductions with a different (fixed-chunk) association (Sum,
///    SquaredNorm) and metric formulas: a bound scaled by the sum of
///    absolute terms.

namespace kucnet {
namespace testing {

// ---- Floating-point comparison ----------------------------------------------

/// ULP distance between two doubles. 0 for equal values (including +0 vs -0
/// and NaN vs NaN — any NaN payload); a huge value when exactly one side is
/// NaN. Infinities are ordered normally (Inf vs Inf is 0).
uint64_t UlpDistance(double a, double b);

/// True when `a` and `b` are within `max_ulp` ULPs (see UlpDistance).
bool NearlyEqualUlp(double a, double b, uint64_t max_ulp);

// ---- Tensor kernels ----------------------------------------------------------

/// C = A * B, naive i-j-k dot products, k ascending per output element.
Matrix OracleMatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B without materializing the transpose.
Matrix OracleMatMulTransposedA(const Matrix& a, const Matrix& b);

/// C = A * B^T without materializing the transpose.
Matrix OracleMatMulTransposedB(const Matrix& a, const Matrix& b);

/// Elementwise references for Matrix::Add / Axpy / Scale.
Matrix OracleAdd(const Matrix& a, const Matrix& b);
Matrix OracleAxpy(real_t alpha, const Matrix& a, const Matrix& b);
Matrix OracleScale(real_t alpha, const Matrix& a);

/// Sequential left-to-right sum / squared Frobenius norm.
real_t OracleSum(const Matrix& a);
real_t OracleSquaredNorm(const Matrix& a);

/// out.row(k) = a.row(idx[k]).
Matrix OracleGather(const Matrix& a, const std::vector<int64_t>& idx);

/// out.row(seg[k]) += a.row(k), k ascending; `num_segments` output rows.
Matrix OracleSegmentSum(const Matrix& a, const std::vector<int64_t>& seg,
                        int64_t num_segments);

// ---- KUCNet ------------------------------------------------------------------

/// Eq. (5)-(7) on `graph` with `model`'s parameters and options, transcribed
/// edge by edge from OracleGather, OracleMatMul and OracleSegmentSum: each
/// layer gathers every edge's source row and relation embedding, computes
/// that edge's message and attention weight on its own (no tape, nothing
/// shared between edges), and sums messages into destinations in edge
/// order. Returns the Eq. (7) score of every final-layer node, by dense
/// index. Every product and sum keeps the accumulation order of the
/// optimized forward, so in deterministic kernel mode they agree bitwise.
/// `model` is non-const only to read its parameters.
std::vector<real_t> OracleKucnetScores(Kucnet& model,
                                       const UserCompGraph& graph);

/// Eq. (5)-(7) on `graph`, recorded on `tape` edge by edge: each layer
/// gathers every edge's source row (Tape::Gather) and relation embedding
/// (Tape::GatherParam), runs W^l and the attention chain once per edge, and
/// sums messages into destinations with Tape::SegmentSum. It uses only the
/// finite-difference-checked tape ops, none of the model's message
/// numbering and not Tape::GatherSegmentSum. Returns the score of every
/// final-layer node (nodes x 1); a Backward through it leaves reference
/// gradients in `model`'s parameters.
Var OracleKucnetTapeScores(Kucnet& model, Tape& tape,
                           const UserCompGraph& graph);

/// Kucnet::BuildLoss's BPR loss (Eq. 14) over OracleKucnetTapeScores.
/// `graph` is `model.LossGraph(user)`; `pos_idx` and `neg_idx` are
/// final-layer indices of the (positive, negative) pairs, equally many and
/// at least one.
Var OracleKucnetLoss(Kucnet& model, Tape& tape, const UserCompGraph& graph,
                     const std::vector<int64_t>& pos_idx,
                     const std::vector<int64_t>& neg_idx);

// ---- PPR ---------------------------------------------------------------------

/// Forward-push transcript: the estimate plus the terminal residual, so mass
/// conservation (estimate + residual == 1) is checkable — the optimized
/// PprForwardPush discards the residual.
struct OraclePprResult {
  std::unordered_map<int64_t, real_t> estimate;
  std::unordered_map<int64_t, real_t> residual;
  /// Sum of all estimates plus all residuals, accumulated in ascending node
  /// id order (should be 1 up to accumulated rounding).
  real_t total_mass = 0.0;
};

/// Naive Andersen-Chung-Lang forward push with the exact queue discipline of
/// TryPprForwardPush (FIFO, dangling nodes absorb their residual), so the
/// estimates must agree bitwise with the optimized implementation.
OraclePprResult OraclePprPush(const Ckg& ckg, int64_t source, real_t alpha,
                              real_t epsilon);

/// Dense absorbing-walk PPR reference: every iteration, every node v pushes
/// alpha of its residual into its estimate and spreads the rest uniformly
/// over out-neighbors; dangling nodes absorb their residual outright (the
/// same semantics as the push's deg == 0 self-restart path). Run with enough
/// iterations this converges to the true PPR of the push process; the push
/// estimate must undershoot it by at most the terminal residual mass.
struct OracleDensePpr {
  std::vector<real_t> estimate;  ///< indexed by node id
  std::vector<real_t> residual;  ///< mass still in flight after `iterations`
};
OracleDensePpr OraclePprDense(const Ckg& ckg, int64_t source, real_t alpha,
                              int iterations);

/// Recompute-from-scratch oracle for the streaming path: rebuilds the
/// dynamic graph as a static Ckg (Ckg::Build over initial + appended
/// inputs) and runs a full forward push for `user`. An incrementally
/// repaired estimate (ppr/dynamic_ppr.h) is *not* bitwise-comparable to
/// this — push order differs — but both satisfy the push invariant with
/// converged residuals, so per-node estimates must agree within
/// Σ|r_incremental| + Σ r_oracle (each residual weighting a PPR value ≤ 1),
/// and each side's total mass must be 1 up to rounding. This is the bound
/// the `stream` diff_fuzz subsystem enforces.
OraclePprResult OracleStreamRecompute(const DynamicCkg& graph, int64_t user,
                                      real_t alpha, real_t epsilon);

// ---- Ranking / metrics -------------------------------------------------------

/// Brute-force top-N: full stable sort of all unmasked indices under the
/// total score order (finite descending, non-finite sunk below all finite,
/// ties by index). Must equal TopNIndices exactly.
std::vector<int64_t> OracleTopN(const std::vector<double>& scores, int64_t n,
                                const std::vector<bool>* mask = nullptr);

/// Definitional recall@N (Eq. 15): |top-N ∩ T| / |T|; 0 for empty T. The
/// denominator is always |T|, even when `ranked` is shorter than N.
double OracleRecallAtN(const std::vector<int64_t>& ranked,
                       const std::unordered_set<int64_t>& test, int64_t n);

/// Definitional ndcg@N (Eq. 16): DCG over the (possibly short) list divided
/// by the ideal DCG of min(|T|, N) terms.
double OracleNdcgAtN(const std::vector<int64_t>& ranked,
                     const std::unordered_set<int64_t>& test, int64_t n);

}  // namespace testing
}  // namespace kucnet

#endif  // KUCNET_TESTING_ORACLE_H_
