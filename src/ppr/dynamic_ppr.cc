#include "ppr/dynamic_ppr.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace kucnet {

namespace {

real_t MapValue(const std::unordered_map<int64_t, real_t>& m, int64_t key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

DynamicPprTable DynamicPprTable::Compute(const DynamicCkg& graph,
                                         PprTableOptions options,
                                         ThreadPool* pool) {
  KUC_TRACE_SPAN("ppr.dynamic_compute");
  DynamicPprTable table;
  table.options_ = options;
  table.users_.resize(graph.num_users());
  auto compute_one = [&](int64_t user) {
    UserState& state = table.users_[user];
    const int64_t source = graph.UserNode(user);
    state.residual[source] = 1.0;
    PushToConvergence(graph, options.alpha, options.epsilon, {source},
                      &state.estimate, &state.residual);
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
  UserState& state = users_[user];
  bool touched = false;
  std::vector<int64_t> dirty;
  for (size_t j = 0; j < inserted.size(); ++j) {
    const Edge& e = inserted[j];
    // The update touches this user if it had any mass at either endpoint —
    // the proxy for "the edge landed inside the user's PPR neighborhood".
    if (!touched &&
        (MapValue(state.estimate, e.src) != 0.0 ||
         MapValue(state.residual, e.src) != 0.0 ||
         MapValue(state.estimate, e.dst) != 0.0 ||
         MapValue(state.residual, e.dst) != 0.0)) {
      touched = true;
    }
    const real_t pu = MapValue(state.estimate, e.src);
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
      state.residual[e.src] += pu;
      state.estimate[e.src] = 0.0;
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
          state.residual[v] += delta_old;
          dirty.push_back(v);
          ++*corrections;
        });
    state.residual[e.dst] += out_mass / d_n;
    dirty.push_back(e.dst);
    ++*corrections;
  }
  if (dirty.empty()) return touched;
  touched = true;
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  // Seed the local push with every node whose residual now violates the
  // convergence criterion (dangling nodes re-absorb any nonzero residual).
  std::vector<int64_t> seeds;
  for (const int64_t v : dirty) {
    const real_t rv = MapValue(state.residual, v);
    const int64_t deg = graph.OutDegree(v);
    if (deg == 0 ? rv != 0.0
                 : std::abs(rv) >= options_.epsilon * static_cast<real_t>(deg)) {
      seeds.push_back(v);
    }
  }
  if (!seeds.empty()) {
    *pushes += PushToConvergence(graph, options_.alpha, options_.epsilon,
                                 seeds, &state.estimate, &state.residual)
                   .pushes;
  }
  return touched;
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

const std::unordered_map<int64_t, real_t>& DynamicPprTable::Estimate(
    int64_t user) const {
  KUC_CHECK_GE(user, 0);
  KUC_CHECK_LT(user, num_users());
  return users_[user].estimate;
}

const std::unordered_map<int64_t, real_t>& DynamicPprTable::Residual(
    int64_t user) const {
  KUC_CHECK_GE(user, 0);
  KUC_CHECK_LT(user, num_users());
  return users_[user].residual;
}

real_t DynamicPprTable::ResidualMass(int64_t user) const {
  real_t sum = 0.0;
  for (const auto& [node, r] : Residual(user)) sum += std::abs(r);
  return sum;
}

real_t DynamicPprTable::Score(int64_t user, int64_t node) const {
  return MapValue(Estimate(user), node);
}

}  // namespace kucnet
