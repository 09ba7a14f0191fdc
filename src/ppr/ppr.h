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
/// loop, the classic Andersen-Chung-Lang forward push (`PushToConvergence`),
/// run on a per-thread dense scratch (`PushScratch`): the static `PprTable`
/// (a hash map per user), the streaming `DynamicPprTable` (node-sorted flat
/// arrays) and its repair (ppr/dynamic_ppr.h). The dense power iteration survives only as the test
/// reference `testing::OraclePprDense`; the push agrees with it to its
/// residual bound (tests/ppr_test.cc, the `ppr` diff_fuzz subsystem).

namespace kucnet {

/// What one PushToConvergence call did.
struct PushCounts {
  int64_t pops = 0;    ///< queue pops
  int64_t pushes = 0;  ///< pops that moved mass onto out-neighbors
};

/// One (node, value) entry of a flat PPR vector.
struct PprEntry {
  int64_t node = 0;
  real_t value = 0.0;
};

/// A sparse PPR vector stored flat: entries in strictly ascending node order.
using FlatPprVector = std::vector<PprEntry>;

/// The value stored for `node` in `vec`, or 0 if it has no entry (binary
/// search).
real_t FlatPprValue(const FlatPprVector& vec, int64_t node);

/// Dense working state of the forward push, one per thread (`ForThisThread`).
/// Estimate and residual values and one flag byte per node (has-estimate,
/// has-residual, queued) are indexed by node id and sized to the largest
/// graph the thread has pushed on. Between uses every value is 0 and every
/// flag clear. A use is Begin, optionally Load, pushes and accessor calls,
/// then Store (after Load) or TakeEstimates (without); both gather the
/// entries and clear what the use set, in O(entries).
///
/// An entry exists where a hash-map push would have created one with
/// `operator[]`: `Estimate(v)`/`Residual(v)` create it (value 0 if new),
/// `EstimateOrZero`/`ResidualOrZero` only read. Entries holding 0.0 are
/// kept, so the gathered entry sets match the map code's exactly. The push
/// loop (PushToConvergence) reads and writes the arrays and the FIFO
/// directly and keeps the same invariants.
class PushScratch {
 public:
  /// The calling thread's scratch.
  static PushScratch& ForThisThread();

  /// Starts a use on a graph of `num_nodes` nodes, growing the arrays if
  /// needed. The scratch must be between uses.
  void Begin(int64_t num_nodes);

  /// Loads the entries of a stored state (ascending node order; empty
  /// vectors for a fresh push), whose estimate nodes must be residual nodes.
  /// Store writes the result back into the same vectors.
  void Load(FlatPprVector* estimate, FlatPprVector* residual);

  real_t& Estimate(int64_t v) {
    Mark(v, kHasEstimate);
    return estimate_[v];
  }
  real_t& Residual(int64_t v) {
    Mark(v, kHasResidual);
    return residual_[v];
  }
  real_t EstimateOrZero(int64_t v) const { return estimate_[v]; }
  real_t ResidualOrZero(int64_t v) const { return residual_[v]; }

  /// Ends a use without Load: returns the estimate entries as a hash map.
  std::unordered_map<int64_t, real_t> TakeEstimates();

  /// Ends a use with Load: writes the entries back into the loaded vectors
  /// in ascending node order. When the use created no entry, the values are
  /// overwritten in place.
  void Store();

 private:
  template <typename Graph>
  friend PushCounts PushToConvergence(const Graph& graph, real_t alpha,
                                      real_t epsilon,
                                      const std::vector<int64_t>& seeds,
                                      PushScratch* scratch);

  static constexpr uint8_t kHasEstimate = 1;
  static constexpr uint8_t kHasResidual = 2;
  static constexpr uint8_t kQueued = 4;

  void Mark(int64_t v, uint8_t flag) {
    uint8_t& f = flags_[v];
    if (f & flag) return;
    if (f == 0) touched_.push_back(v);
    f |= flag;
    ++(flag == kHasEstimate ? num_estimates_ : num_residuals_);
  }
  /// Clears node v's values and flags.
  void Clear(int64_t v) {
    estimate_[v] = 0.0;
    residual_[v] = 0.0;
    flags_[v] = 0;
  }
  /// Pops the FIFO's next node into *v, or returns false when it is
  /// empty; the caller clears the node's queued flag. Drops the popped
  /// prefix first once it is most of the buffer, so the FIFO holds
  /// O(waiting nodes) however many pops a push makes.
  bool Dequeue(int64_t* v) {
    if (head_ == queue_.size()) return false;
    if (head_ >= 4096 && 2 * head_ >= queue_.size()) {
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<int64_t>(head_));
      head_ = 0;
    }
    *v = queue_[head_++];
    return true;
  }
  /// Aborts with the node and value if an estimate entry is not finite.
  void CheckEstimatesFinite() const;
  void EndUse();

  std::vector<real_t> estimate_;
  std::vector<real_t> residual_;
  std::vector<uint8_t> flags_;
  /// The vectors Load read; their residual nodes are flagged but not listed
  /// in `touched_`.
  FlatPprVector* loaded_estimate_ = nullptr;
  FlatPprVector* loaded_residual_ = nullptr;
  /// Nodes flagged during the use that Load did not load.
  std::vector<int64_t> touched_;
  int64_t num_estimates_ = 0;
  int64_t num_residuals_ = 0;
  std::vector<int64_t> queue_;
  size_t head_ = 0;
};

/// Forward push from `seeds`, the nodes whose residual the caller set
/// (sorted and deduplicated, for determinism), until |r(v)| < epsilon *
/// deg(v) at every node the push reached. Reads and updates the estimate
/// and residual entries in `scratch`, which must be in a use (see
/// PushScratch). The queue is FIFO. A popped node at or above its threshold
/// moves alpha of its residual into its estimate and spreads the rest evenly
/// over its out-edges, enqueueing each neighbor that crosses its own
/// threshold; a dangling node (degree 0) absorbs its whole residual instead.
/// Residuals may be negative: the streaming repair seeds signed corrections,
/// and negative mass pushes like positive. A push from a fresh source
/// (residual 1 at the source, nothing else) only ever holds non-negative
/// residuals. Instantiated in ppr.cc for `Ckg` and `DynamicCkg`; neighbors
/// are visited in each graph's own order (for `DynamicCkg`, base CSR then
/// overflow).
template <typename Graph>
PushCounts PushToConvergence(const Graph& graph, real_t alpha, real_t epsilon,
                             const std::vector<int64_t>& seeds,
                             PushScratch* scratch);

/// Sparse PPR of `source` by forward push with per-node residual threshold
/// `epsilon * degree(v)`. Returns only the estimates, which undershoot the
/// true PPR by at most epsilon * degree summed over nodes.
std::unordered_map<int64_t, real_t> PprForwardPush(const Ckg& ckg,
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
  static PprTable Compute(const Ckg& ckg,
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
