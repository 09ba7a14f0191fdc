#include "ppr/dynamic_ppr.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace kucnet {

DynamicPprTable DynamicPprTable::Compute(const DynamicCkg& graph,
                                         PprTableOptions options,
                                         ThreadPool* pool) {
  KUC_TRACE_SPAN("ppr.dynamic_compute");
  DynamicPprTable table;
  table.options_ = options;
  table.users_.resize(graph.num_users());
  auto compute_one = [&](int64_t user) {
    DensePprState& state = table.users_[user];
    state = DensePprState(graph.num_nodes());
    const int64_t source = graph.UserNode(user);
    PushScratch& scratch = PushScratch::ForThisThread();
    scratch.SwapIn(&state);
    scratch.Residual(source) = 1.0;
    PushToConvergence(graph, options.alpha, options.epsilon, {source},
                      &scratch);
    scratch.SwapOut();
  };
  if (pool != nullptr) {
    ParallelFor(*pool, graph.num_users(), compute_one);
  } else {
    for (int64_t u = 0; u < graph.num_users(); ++u) compute_one(u);
  }
  return table;
}

bool DynamicPprTable::RepairUser(const DynamicCkg& graph,
                                 const std::vector<Edge>& inserted,
                                 const std::vector<int64_t>& d_old,
                                 int64_t user, int64_t* corrections,
                                 int64_t* pushes) {
  DensePprState& state = users_[user];
  // An edge moves mass only if some mass was pushed or absorbed at its
  // source (p̂(u) != 0). When no edge does, the state stays as stored, and
  // its arrays answer the touched test (a node without an entry holds 0):
  // the update touches this user if it had any mass at either endpoint —
  // the proxy for "the edge landed inside the user's PPR neighborhood".
  const real_t* const estimate = state.estimate.data();
  const real_t* const residual = state.residual.data();
  bool moves_mass = false;
  for (const Edge& e : inserted) {
    if (estimate[e.src] != 0.0) {
      moves_mass = true;
      break;
    }
  }
  if (!moves_mass) {
    auto holds_mass = [&](int64_t v) {
      return estimate[v] != 0.0 || residual[v] != 0.0;
    };
    for (const Edge& e : inserted) {
      if (holds_mass(e.src) || holds_mass(e.dst)) return true;
    }
    return false;
  }

  PushScratch& scratch = PushScratch::ForThisThread();
  scratch.SwapIn(&state);
  std::vector<int64_t> dirty;
  for (size_t j = 0; j < inserted.size(); ++j) {
    const Edge& e = inserted[j];
    const real_t pu = scratch.EstimateOrZero(e.src);
    if (pu == 0.0) {
      // No mass was ever pushed or absorbed at e.src for this source: the
      // degree change only raises push thresholds, which cannot un-converge
      // a converged residual.
      continue;
    }
    if (d_old[j] == 0) {
      // Previously-dangling node: degrees only grow, so e.src was always
      // dangling and all of p̂ is absorbed residual. Reverse the absorption;
      // the mass re-pushes below under the node's new degree.
      scratch.Residual(e.src) += pu;
      scratch.Estimate(e.src) = 0.0;
      dirty.push_back(e.src);
      ++*corrections;
      continue;
    }
    // Re-normalize the historical pushed mass x(u) = p̂(u)/alpha from d_old
    // targets to d_old + 1. The d_old "old" out-edges are exactly the
    // canonical-order prefix (this edge and any later batch edges from the
    // same node sit after them in the overflow list).
    const real_t out_mass =
        (1.0 - options_.alpha) * pu / options_.alpha;
    const real_t d_o = static_cast<real_t>(d_old[j]);
    const real_t d_n = static_cast<real_t>(d_old[j] + 1);
    const real_t delta_old = out_mass * (1.0 / d_n - 1.0 / d_o);
    graph.ForEachOutNeighborPrefix(
        e.src, d_old[j], [&](int64_t /*rel*/, int64_t v) {
          scratch.Residual(v) += delta_old;
          dirty.push_back(v);
          ++*corrections;
        });
    scratch.Residual(e.dst) += out_mass / d_n;
    dirty.push_back(e.dst);
    ++*corrections;
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  // Seed the local push with every node whose residual now violates the
  // convergence criterion (dangling nodes re-absorb any nonzero residual).
  std::vector<int64_t> seeds;
  for (const int64_t v : dirty) {
    const real_t rv = scratch.ResidualOrZero(v);
    const int64_t deg = graph.OutDegree(v);
    if (deg == 0 ? rv != 0.0
                 : std::abs(rv) >= options_.epsilon * static_cast<real_t>(deg)) {
      seeds.push_back(v);
    }
  }
  if (!seeds.empty()) {
    *pushes += PushToConvergence(graph, options_.alpha, options_.epsilon,
                                 seeds, &scratch)
                   .pushes;
  }
  scratch.SwapOut();
  return true;  // the first edge that moves mass corrected some residual
}

std::vector<int64_t> DynamicPprTable::ApplyEdgeInsertions(
    const DynamicCkg& graph, const std::vector<Edge>& inserted,
    ThreadPool* pool) {
  KUC_TRACE_SPAN("ppr.repair");
  if (inserted.empty()) return {};
  // Degree each edge's source had at insertion time: final degree minus the
  // batch edges from the same source at this position or later.
  std::vector<int64_t> d_old(inserted.size());
  std::unordered_map<int64_t, int64_t> remaining;
  for (const Edge& e : inserted) ++remaining[e.src];
  for (size_t j = 0; j < inserted.size(); ++j) {
    int64_t& rem = remaining[inserted[j].src];
    d_old[j] = graph.OutDegree(inserted[j].src) - rem;
    KUC_CHECK_GE(d_old[j], 0);
    --rem;
  }

  const int64_t n = num_users();
  std::vector<uint8_t> touched(n, 0);
  std::atomic<int64_t> corrections{0};
  std::atomic<int64_t> pushes{0};
  auto repair_one = [&](int64_t user) {
    int64_t local_corrections = 0;
    int64_t local_pushes = 0;
    if (RepairUser(graph, inserted, d_old, user, &local_corrections,
                   &local_pushes)) {
      touched[user] = 1;
    }
    corrections.fetch_add(local_corrections, std::memory_order_relaxed);
    pushes.fetch_add(local_pushes, std::memory_order_relaxed);
  };
  if (pool != nullptr) {
    ParallelFor(*pool, n, repair_one);
  } else {
    for (int64_t u = 0; u < n; ++u) repair_one(u);
  }

  std::vector<int64_t> touched_users;
  for (int64_t u = 0; u < n; ++u) {
    if (touched[u]) touched_users.push_back(u);
  }
  repair_stats_.users_scanned = n;
  repair_stats_.users_touched = static_cast<int64_t>(touched_users.size());
  repair_stats_.corrections = corrections.load(std::memory_order_relaxed);
  repair_stats_.pushes = pushes.load(std::memory_order_relaxed);
  KUC_OBS_COUNT("ppr.repair_calls", 1);
  KUC_OBS_COUNT("ppr.repair_touched_users", repair_stats_.users_touched);
  KUC_OBS_COUNT("ppr.repair_pushes", repair_stats_.pushes);
  return touched_users;
}

namespace {

// The entries of one of a user's arrays: the nodes flagged `flag`, in
// ascending order.
FlatPprVector Entries(const std::vector<real_t>& values,
                      const std::vector<uint8_t>& flags, uint8_t flag) {
  FlatPprVector out;
  for (size_t v = 0; v < flags.size(); ++v) {
    if (flags[v] & flag) out.push_back({static_cast<int64_t>(v), values[v]});
  }
  return out;
}

}  // namespace

FlatPprVector DynamicPprTable::Estimate(int64_t user) const {
  KUC_CHECK_GE(user, 0);
  KUC_CHECK_LT(user, num_users());
  const DensePprState& state = users_[user];
  return Entries(state.estimate, state.flags, PushScratch::kHasEstimate);
}

FlatPprVector DynamicPprTable::Residual(int64_t user) const {
  KUC_CHECK_GE(user, 0);
  KUC_CHECK_LT(user, num_users());
  const DensePprState& state = users_[user];
  return Entries(state.residual, state.flags, PushScratch::kHasResidual);
}

real_t DynamicPprTable::ResidualMass(int64_t user) const {
  KUC_CHECK_GE(user, 0);
  KUC_CHECK_LT(user, num_users());
  // Nodes without an entry hold 0, so they add nothing.
  real_t sum = 0.0;
  for (const real_t r : users_[user].residual) sum += std::abs(r);
  return sum;
}

}  // namespace kucnet
