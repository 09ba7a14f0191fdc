#ifndef KUCNET_PPR_DYNAMIC_PPR_H_
#define KUCNET_PPR_DYNAMIC_PPR_H_

#include <cstdint>
#include <vector>

#include "graph/dynamic_ckg.h"
#include "ppr/ppr.h"
#include "util/thread_pool.h"

/// \file
/// Incrementally-maintained forward-push PPR over a DynamicCkg.
///
/// Forward push (Andersen-Chung-Lang) maintains, for source s and every
/// target t, the invariant
///
///     p_true(s, t) = p̂(t) + Σ_v r(v) · p_true(v, t)            (*)
///
/// where p̂ is the estimate and r the residual. The invariant is what makes
/// local repair possible: it holds for *any* (p̂, r) reachable by pushes on
/// the current graph, so an edge insertion only breaks it through the pushes
/// that already happened at the endpoint whose degree changed.
///
/// Repair rule for inserting directed edge (u → w), degree d → d+1, with
/// x(u) = p̂(u) / alpha the total mass historically pushed at u (all of it
/// re-normalized to u's then-current degree by earlier repairs, so it
/// behaves as if distributed over exactly d targets at 1/d each):
///
///     for each of u's d old out-edges (u → v):
///         r(v) += (1 − alpha) · x(u) · (1/(d+1) − 1/d)         [negative]
///     r(w) += (1 − alpha) · x(u) / (d+1)
///
/// The corrections sum to zero (mass is conserved exactly) and restore (*)
/// on the new graph. Special case d == 0: a dangling node absorbed its
/// residual into p̂ outright (see PushToConvergence), and — degrees only
/// grow — it was *always* dangling, so all of p̂(u) is absorbed mass; the
/// reversal is r(u) += p̂(u), p̂(u) = 0, which is degree-independent and
/// exact. Afterwards the same PushToConvergence, seeded with the corrected
/// nodes, runs as a *signed* local push (|r(v)| ≥ epsilon·deg(v) drives the
/// queue; negative residuals push negative mass) and restores the
/// convergence criterion touching only the affected neighborhood.
///
/// The repaired estimate is not bitwise-equal to a from-scratch push on the
/// rebuilt graph (push order differs), but both satisfy (*) with converged
/// residuals, so they differ by at most Σ|r_inc| + Σ r_fresh — the bound
/// the `stream` diff_fuzz subsystem checks against the recompute oracle.
///
/// Storage: each user's estimate and residual live in a `DensePprState`
/// (ppr/ppr.h), node-indexed arrays with one flag byte per node, 17 bytes
/// per node per user. A user's PPR support covers nearly every node of the
/// graphs this table streams on (99-100% on the synthetic configs), so the
/// dense arrays take about half the bytes of sorted (node, value) entries.
/// A repair or a fresh push swaps the user's arrays into the thread's
/// PushScratch and runs on them in place; nothing is copied.

namespace kucnet {

/// One (node, value) entry of a flat PPR vector.
struct PprEntry {
  int64_t node = 0;
  real_t value = 0.0;
};

/// A sparse PPR vector stored flat: entries in strictly ascending node order.
using FlatPprVector = std::vector<PprEntry>;

/// Aggregate counters from the last ApplyEdgeInsertions call.
struct PprRepairStats {
  int64_t users_scanned = 0;
  int64_t users_touched = 0;
  int64_t corrections = 0;  ///< residual corrections applied
  int64_t pushes = 0;       ///< local push operations run to re-converge
};

class DynamicPprTable {
 public:
  /// Full forward push for every user on the dynamic graph, keeping the
  /// converged residuals (PprForwardPush discards them; repair needs them).
  /// On a graph with no overflow edges the estimates are bitwise-identical
  /// to PprTable::Compute — both run PushToConvergence, and the graphs list
  /// every node's neighbors in the same order.
  static DynamicPprTable Compute(const DynamicCkg& graph,
                                 PprTableOptions options = PprTableOptions(),
                                 ThreadPool* pool = nullptr);

  /// Repairs every user vector for directed edges just inserted into
  /// `graph` (pass the exact list DynamicCkg::Add* reported, in order;
  /// the edges must already be present and must be the most recent
  /// insertions). Returns the sorted user ids whose vectors the update
  /// touched — the set whose cache entries must be invalidated.
  std::vector<int64_t> ApplyEdgeInsertions(const DynamicCkg& graph,
                                           const std::vector<Edge>& inserted,
                                           ThreadPool* pool = nullptr);

  /// Bytes of PPR state per user and graph node, whatever the user's
  /// support: an estimate, a residual and a flag byte.
  static constexpr int64_t kStateBytesPerNode =
      2 * sizeof(real_t) + sizeof(uint8_t);

  /// A user's estimate and residual entries, gathered in ascending node
  /// order. Estimate nodes are a subset of residual nodes, and entries
  /// holding 0.0 are kept where the push or repair created them.
  FlatPprVector Estimate(int64_t user) const;
  FlatPprVector Residual(int64_t user) const;

  /// Σ|r| of a user's residual — the user's contribution to the agreement
  /// bound vs a fresh recompute.
  real_t ResidualMass(int64_t user) const;

  int64_t num_users() const { return static_cast<int64_t>(users_.size()); }

  const PprRepairStats& last_repair_stats() const { return repair_stats_; }
  real_t alpha() const { return options_.alpha; }
  real_t epsilon() const { return options_.epsilon; }

 private:
  /// Repairs one user for the inserted edges; d_old[j] is the source-node
  /// degree edge j's endpoint had at its insertion. Returns true if the
  /// update touched this user's neighborhood.
  bool RepairUser(const DynamicCkg& graph, const std::vector<Edge>& inserted,
                  const std::vector<int64_t>& d_old, int64_t user,
                  int64_t* corrections, int64_t* pushes);

  PprTableOptions options_;
  std::vector<DensePprState> users_;
  PprRepairStats repair_stats_;
};

}  // namespace kucnet

#endif  // KUCNET_PPR_DYNAMIC_PPR_H_
