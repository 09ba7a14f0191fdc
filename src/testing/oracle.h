#ifndef KUCNET_TESTING_ORACLE_H_
#define KUCNET_TESTING_ORACLE_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
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

// ---- Graph layout ------------------------------------------------------------

/// The CKG of Sec. III as plain per-node lists, built without any of the
/// CSR builders' code: every input edge and its inverse go into one
/// std::set of global (src, rel, dst) triples, which sorts and
/// deduplicates them, and each node's row is read off the set in order.
/// An interaction (u, i) gives (u, 0, i) and (i, B, u), where B = 1 +
/// num_kg_relations; a KG triplet (h, r, t) gives (h, r + 1, t) and
/// (t, r + 1 + B, h), with KG ids offset by num_users; a user triplet the
/// same between user nodes. Inputs must be in range.
struct OracleAdjacency {
  OracleAdjacency(int64_t num_users, int64_t num_items, int64_t num_kg_nodes,
                  int64_t num_kg_relations,
                  const std::vector<std::array<int64_t, 2>>& interactions,
                  const std::vector<std::array<int64_t, 3>>& kg_triplets,
                  const std::vector<std::array<int64_t, 3>>& user_triplets = {});

  int64_t num_users;
  int64_t num_items;
  int64_t num_kg_nodes;
  int64_t num_kg_relations;
  int64_t num_edges = 0;
  /// rows[v]: node v's out-edges as (rel, dst), ascending, no duplicates.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> rows;
};

/// Empty when `graph` equals `want` scalar for scalar (sizes, relation
/// counts, the self-loop id, every InverseRelation and every user's
/// ItemsOfUser) and row for row in order (each node's OutDegree, then its
/// OutRelations/OutNeighbors pairs); otherwise names the first difference.
std::string AdjacencyDifference(const Ckg& graph, const OracleAdjacency& want);

// ---- KUCNet ------------------------------------------------------------------

/// The pruned user-centric computation graph of `user_node` (Alg. 1 line 4),
/// expanded with hash maps from node id to dense index, one map per layer:
/// per head node a self-loop first (when `options.self_loops`), then its
/// out-edges in CSR order minus the excluded interact edges (both
/// directions), cut to the top K by tail score (descending, then dst, then
/// rel, via std::nth_element) or to K random edges drawn with
/// `rng->SampleWithoutReplacement`. `score` is required iff PPR pruning is
/// on, `rng` iff random pruning is. CompGraphBuilder::TryBuild must equal
/// this field for field.
UserCompGraph OracleUserCompGraph(const Ckg& ckg,
                                  const CompGraphOptions& options,
                                  int64_t user_node, const NodeScoreFn* score,
                                  Rng* rng,
                                  const std::vector<ExcludedPair>& excluded);

/// Empty when `got` equals `want` field for field (user node, every layer's
/// src_index, rel, dst_index and nodes, and final_index); otherwise names
/// the first field that differs, with both sides' sizes.
std::string UserCompGraphDifference(const UserCompGraph& got,
                                    const UserCompGraph& want);

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
/// PushToConvergence from a fresh source (FIFO, dangling nodes absorb their
/// residual), so estimates and residuals must agree bitwise with the
/// optimized implementation.
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

/// Map-and-deque replica of the streaming repair of one user's PPR state
/// (DynamicPprTable::ApplyEdgeInsertions) for the directed edges `inserted`,
/// the list DynamicCkg::Add* reported for the update just applied to
/// `graph`. `estimate` and `residual` hold the state before the update and
/// are repaired in place:
///  - each edge's old source degree is counted from the batch: the source's
///    degree now minus the batch edges from it at this position or later;
///  - when no edge's source holds a nonzero estimate, nothing changes;
///  - otherwise, edge by edge in batch order, a source that was dangling
///    gives its estimate back to its residual, and any other source with a
///    nonzero estimate re-normalises its pushed mass from its old
///    out-edges (ForEachOutNeighborPrefix) to them plus the new one;
///  - the corrected nodes, in ascending order, whose |residual| reaches
///    epsilon * degree (any nonzero residual at a dangling node) seed a
///    signed FIFO push, |r| >= epsilon * degree, over `graph`'s canonical
///    neighbor order.
/// Entries are created with operator[] exactly where the optimized repair
/// creates them, so the optimized table must equal this key for key and
/// bit for bit.
void OraclePprRepair(const DynamicCkg& graph, const std::vector<Edge>& inserted,
                     real_t alpha, real_t epsilon,
                     std::unordered_map<int64_t, real_t>* estimate,
                     std::unordered_map<int64_t, real_t>* residual);

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
