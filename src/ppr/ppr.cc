#include "ppr/ppr.h"

#include <cmath>
#include <deque>

#include "graph/dynamic_ckg.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/compact_ckg.h"
#include "util/clock.h"
#include "util/finite.h"
#include "util/logging.h"

namespace kucnet {

namespace {

/// Calls fn(w) for each out-neighbor w of v, in the graph's own order.
template <typename Graph, typename Fn>
void ForEachOutNeighbor(const Graph& graph, int64_t v, Fn&& fn) {
  if constexpr (requires { graph.OutNeighbors(v); }) {
    for (const int64_t w : graph.OutNeighbors(v)) fn(w);
  } else {
    graph.ForEachOutNeighbor(v, [&](int64_t /*rel*/, int64_t w) { fn(w); });
  }
}

}  // namespace

template <typename Graph>
PushCounts PushToConvergence(const Graph& graph, real_t alpha, real_t epsilon,
                             const std::vector<int64_t>& seeds,
                             std::unordered_map<int64_t, real_t>* estimate,
                             std::unordered_map<int64_t, real_t>* residual) {
  std::deque<int64_t> queue;
  std::unordered_map<int64_t, bool> queued;
  for (const int64_t v : seeds) {
    queue.push_back(v);
    queued[v] = true;
  }
  PushCounts counts;
  while (!queue.empty()) {
    const int64_t v = queue.front();
    queue.pop_front();
    queued[v] = false;
    ++counts.pops;
    const int64_t deg = graph.OutDegree(v);
    real_t& rv = (*residual)[v];
    if (deg == 0) {
      // Dangling node: all residual mass becomes estimate (self-restart).
      (*estimate)[v] += rv;
      rv = 0.0;
      continue;
    }
    if (std::abs(rv) < epsilon * static_cast<real_t>(deg)) continue;
    const real_t mass = rv;
    (*estimate)[v] += alpha * mass;
    rv = 0.0;
    ++counts.pushes;
    const real_t push = (1.0 - alpha) * mass / static_cast<real_t>(deg);
    ForEachOutNeighbor(graph, v, [&](int64_t w) {
      real_t& rw = (*residual)[w];
      rw += push;
      if (std::abs(rw) >= epsilon * static_cast<real_t>(graph.OutDegree(w)) &&
          !queued[w]) {
        queued[w] = true;
        queue.push_back(w);
      }
    });
  }
  // PPR boundary: estimates feed pruning and the serving heuristic tier; a
  // non-finite entry (degenerate alpha/epsilon, corrupt graph weights) must
  // fail here rather than skew rankings downstream.
  if (FiniteChecksEnabled()) {
    for (const auto& [node, value] : *estimate) {
      KUC_CHECK(std::isfinite(value))
          << "ppr.estimate: non-finite value " << value << " at node " << node;
    }
  }
  return counts;
}

template <typename Graph>
std::unordered_map<int64_t, real_t> PprForwardPush(const Graph& ckg,
                                                   int64_t source, real_t alpha,
                                                   real_t epsilon) {
  KUC_TRACE_SPAN("ppr.push");
  KUC_OBS_COUNT("ppr.push_calls", 1);
  KUC_CHECK_GE(source, 0);
  KUC_CHECK_LT(source, ckg.num_nodes());
  std::unordered_map<int64_t, real_t> estimate;
  std::unordered_map<int64_t, real_t> residual;
  residual[source] = 1.0;
  const PushCounts counts =
      PushToConvergence(ckg, alpha, epsilon, {source}, &estimate, &residual);
  KUC_OBS_COUNT("ppr.push_pops", counts.pops);
  return estimate;
}

template <typename Graph>
PprTable PprTable::Compute(const Graph& ckg, PprTableOptions options,
                           ThreadPool* pool) {
  KUC_TRACE_SPAN("ppr.table_compute");
  Stopwatch timer;
  PprTable table;
  table.vectors_.resize(ckg.num_users());
  auto compute_one = [&](int64_t user) {
    table.vectors_[user] =
        PprForwardPush(ckg, ckg.UserNode(user), options.alpha, options.epsilon);
  };
  if (pool != nullptr) {
    ParallelFor(*pool, ckg.num_users(), compute_one);
  } else {
    for (int64_t u = 0; u < ckg.num_users(); ++u) compute_one(u);
  }
  table.compute_seconds_ = timer.Seconds();
  return table;
}

// The push is compiled here once per graph representation.
template PushCounts PushToConvergence<Ckg>(
    const Ckg&, real_t, real_t, const std::vector<int64_t>&,
    std::unordered_map<int64_t, real_t>*, std::unordered_map<int64_t, real_t>*);
template PushCounts PushToConvergence<CompactCkg>(
    const CompactCkg&, real_t, real_t, const std::vector<int64_t>&,
    std::unordered_map<int64_t, real_t>*, std::unordered_map<int64_t, real_t>*);
template PushCounts PushToConvergence<DynamicCkg>(
    const DynamicCkg&, real_t, real_t, const std::vector<int64_t>&,
    std::unordered_map<int64_t, real_t>*, std::unordered_map<int64_t, real_t>*);
template std::unordered_map<int64_t, real_t> PprForwardPush<Ckg>(
    const Ckg&, int64_t, real_t, real_t);
template std::unordered_map<int64_t, real_t> PprForwardPush<CompactCkg>(
    const CompactCkg&, int64_t, real_t, real_t);
template PprTable PprTable::Compute<Ckg>(const Ckg&, PprTableOptions,
                                         ThreadPool*);
template PprTable PprTable::Compute<CompactCkg>(const CompactCkg&,
                                                PprTableOptions, ThreadPool*);

PprTable PprTable::FromVectors(
    std::vector<std::unordered_map<int64_t, real_t>> vectors) {
  PprTable table;
  table.vectors_ = std::move(vectors);
  return table;
}

real_t PprTable::Score(int64_t user, int64_t node) const {
  const auto& vec = Vector(user);
  const auto it = vec.find(node);
  return it == vec.end() ? 0.0 : it->second;
}

const std::unordered_map<int64_t, real_t>& PprTable::Vector(
    int64_t user) const {
  KUC_CHECK_GE(user, 0);
  KUC_CHECK_LT(user, num_users());
  return vectors_[user];
}

NodeScoreFn PprTable::ScoreFn(int64_t user) const {
  const auto* vec = &Vector(user);
  return [vec](int64_t node) -> real_t {
    const auto it = vec->find(node);
    return it == vec->end() ? 0.0 : it->second;
  };
}

}  // namespace kucnet
