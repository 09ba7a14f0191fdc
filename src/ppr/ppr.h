#ifndef KUCNET_PPR_PPR_H_
#define KUCNET_PPR_PPR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/ckg.h"
#include "graph/compgraph.h"
#include "tensor/matrix.h"
#include "util/thread_pool.h"

/// \file
/// Personalized PageRank (Sec. IV-C2).
///
/// The paper computes PPR scores r_u for every user as a preprocessing step
/// (Eq. 13, ~20 power iterations, restart alpha = 0.15) and uses them to keep
/// the top-K out-edges per head node. Every PPR vector here comes from one
/// loop, the classic Andersen-Chung-Lang forward push (`PushToConvergence`):
/// the static `PprTable`, the streaming `DynamicPprTable` and its repair
/// (ppr/dynamic_ppr.h). The dense power iteration survives only as the test
/// reference `testing::OraclePprDense`; the push agrees with it to its
/// residual bound (tests/ppr_test.cc, the `ppr` diff_fuzz subsystem).

namespace kucnet {

/// What one PushToConvergence call did.
struct PushCounts {
  int64_t pops = 0;    ///< queue pops
  int64_t pushes = 0;  ///< pops that moved mass onto out-neighbors
};

/// Forward push from `seeds`, the nodes whose residual the caller set
/// (sorted and deduplicated, for determinism), until |r(v)| < epsilon *
/// deg(v) at every node the push reached. The queue is FIFO. A popped node
/// at or above its threshold moves alpha of its residual into its estimate
/// and spreads the rest evenly over its out-edges, enqueueing each neighbor
/// that crosses its own threshold; a dangling node (degree 0) absorbs its
/// whole residual instead. Residuals may be negative: the streaming repair
/// seeds signed corrections, and negative mass pushes like positive. A push
/// from a fresh source (residual 1 at the source, nothing else) only ever
/// holds non-negative residuals. Instantiated in ppr.cc for `Ckg`,
/// `CompactCkg` and `DynamicCkg`; neighbors are visited in each graph's own
/// order (for `DynamicCkg`, base CSR then overflow).
template <typename Graph>
PushCounts PushToConvergence(const Graph& graph, real_t alpha, real_t epsilon,
                             const std::vector<int64_t>& seeds,
                             std::unordered_map<int64_t, real_t>* estimate,
                             std::unordered_map<int64_t, real_t>* residual);

/// Sparse PPR of `source` by forward push with per-node residual threshold
/// `epsilon * degree(v)`. Returns only the estimates, which undershoot the
/// true PPR by at most epsilon * degree summed over nodes. Instantiated for
/// `Ckg` and `CompactCkg`.
template <typename Graph>
std::unordered_map<int64_t, real_t> PprForwardPush(const Graph& ckg,
                                                   int64_t source,
                                                   real_t alpha = 0.15,
                                                   real_t epsilon = 1e-6);

/// Options for PprTable::Compute.
struct PprTableOptions {
  real_t alpha = 0.15;
  real_t epsilon = 1e-6;
};

/// Precomputed PPR vectors for every user (the paper's preprocessing stage;
/// Table VI reports its cost separately from training/inference).
class PprTable {
 public:
  /// Computes vectors for all users, in parallel when a pool is given.
  /// Instantiated for `Ckg` and `CompactCkg` (see PprForwardPush).
  template <typename Graph>
  static PprTable Compute(const Graph& ckg,
                          PprTableOptions options = PprTableOptions(),
                          ThreadPool* pool = nullptr);

  /// Wraps externally-computed per-user vectors (vector index = user id),
  /// e.g. pushes for a sample of users at web scale (bench/scale_bench.cc).
  static PprTable FromVectors(
      std::vector<std::unordered_map<int64_t, real_t>> vectors);

  /// PPR score of `node` from `user`'s perspective (0 if unranked).
  real_t Score(int64_t user, int64_t node) const;

  /// The sparse score vector of a user.
  const std::unordered_map<int64_t, real_t>& Vector(int64_t user) const;

  /// Adapter for CompGraphBuilder pruning.
  NodeScoreFn ScoreFn(int64_t user) const;

  int64_t num_users() const { return static_cast<int64_t>(vectors_.size()); }

  /// Wall-clock seconds spent in Compute() (Table VI's "PPR" row).
  double compute_seconds() const { return compute_seconds_; }

 private:
  std::vector<std::unordered_map<int64_t, real_t>> vectors_;
  double compute_seconds_ = 0.0;
};

}  // namespace kucnet

#endif  // KUCNET_PPR_PPR_H_
