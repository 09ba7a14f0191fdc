#include "ppr/ppr.h"

#include <cmath>
#include <type_traits>

#include "graph/dynamic_ckg.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/finite.h"
#include "util/logging.h"

namespace kucnet {

PushScratch& PushScratch::ForThisThread() {
  static thread_local PushScratch scratch;
  return scratch;
}

void PushScratch::Begin(int64_t num_nodes) {
  KUC_CHECK(touched_.empty() && queue_.empty() && swapped_in_ == nullptr)
      << "PushScratch::Begin: the previous use did not end";
  const auto n = static_cast<size_t>(num_nodes);
  if (flags_.size() < n) {
    estimate_.resize(n, 0.0);
    residual_.resize(n, 0.0);
    flags_.resize(n, 0);
  }
}

void PushScratch::SwapIn(DensePprState* state) {
  KUC_CHECK(touched_.empty() && queue_.empty() && swapped_in_ == nullptr)
      << "PushScratch::SwapIn: the previous use did not end";
  KUC_CHECK(state->estimate.size() == state->flags.size() &&
            state->residual.size() == state->flags.size())
      << "PushScratch::SwapIn: the state's arrays differ in length";
  estimate_.swap(state->estimate);
  residual_.swap(state->residual);
  flags_.swap(state->flags);
  swapped_in_ = state;
}

std::unordered_map<int64_t, real_t> PushScratch::TakeEstimates() {
  KUC_CHECK(swapped_in_ == nullptr)
      << "PushScratch::TakeEstimates: a SwapIn use ends in SwapOut";
  std::unordered_map<int64_t, real_t> out;
  out.reserve(static_cast<size_t>(num_estimates_));
  for (const int64_t v : touched_) {
    if (flags_[v] & kHasEstimate) out.emplace(v, estimate_[v]);
    Clear(v);
  }
  EndUse();
  return out;
}

void PushScratch::SwapOut() {
  KUC_CHECK(swapped_in_ != nullptr) << "PushScratch: SwapOut without SwapIn";
  estimate_.swap(swapped_in_->estimate);
  residual_.swap(swapped_in_->residual);
  flags_.swap(swapped_in_->flags);
  EndUse();
}

void PushScratch::CheckEstimatesFinite() const {
  auto check = [&](int64_t v) {
    if ((flags_[v] & kHasEstimate) == 0) return;
    KUC_CHECK(std::isfinite(estimate_[v]))
        << "ppr.estimate: non-finite value " << estimate_[v] << " at node "
        << v;
  };
  if (swapped_in_ != nullptr) {
    // A stored state's entries predate the use and are not all touched.
    for (size_t v = 0; v < flags_.size(); ++v) check(static_cast<int64_t>(v));
  } else {
    for (const int64_t v : touched_) check(v);
  }
}

void PushScratch::EndUse() {
  swapped_in_ = nullptr;
  touched_.clear();
  num_estimates_ = 0;
  queue_.clear();
  head_ = 0;
}

template <typename Graph>
PushCounts PushToConvergence(const Graph& graph, real_t alpha, real_t epsilon,
                             const std::vector<int64_t>& seeds,
                             PushScratch* scratch) {
  // Begin sized the arrays for this graph (SwapIn brought arrays of its
  // size), so their buffers stay put for the whole push; only the FIFO and
  // the touched list grow.
  real_t* const estimate = scratch->estimate_.data();
  real_t* const residual = scratch->residual_.data();
  uint8_t* const flags = scratch->flags_.data();
  std::vector<int64_t>& queue = scratch->queue_;
  std::vector<int64_t>& touched = scratch->touched_;
  int64_t new_estimates = 0;
  for (const int64_t v : seeds) {
    flags[v] |= PushScratch::kQueued;
    queue.push_back(v);
  }
  PushCounts counts;
  int64_t v = 0;
  while (scratch->Dequeue(&v)) {
    ++counts.pops;
    const int64_t deg = graph.OutDegree(v);
    const real_t rv = residual[v];
    // Mass moves at a dangling node (degree 0, which absorbs its whole
    // residual) and at a node not below its threshold.
    const bool moves =
        deg == 0 || !(std::abs(rv) < epsilon * static_cast<real_t>(deg));
    // One flag update: clear queued, create the residual entry, and the
    // estimate entry if mass moves into it. A node enters the touched list
    // when its first entry is made, as in Mark.
    uint8_t f = flags[v] & static_cast<uint8_t>(~PushScratch::kQueued);
    if (f == 0) touched.push_back(v);
    f |= PushScratch::kHasResidual;
    if (moves) {
      if ((f & PushScratch::kHasEstimate) == 0) ++new_estimates;
      f |= PushScratch::kHasEstimate;
    }
    flags[v] = f;
    if (!moves) continue;
    if (deg == 0) {
      // Dangling node: all residual mass becomes estimate (self-restart).
      estimate[v] += rv;
      residual[v] = 0.0;
      continue;
    }
    estimate[v] += alpha * rv;
    residual[v] = 0.0;
    ++counts.pushes;
    const real_t push = (1.0 - alpha) * rv / static_cast<real_t>(deg);
    // A row may list w more than once (parallel edges, a self-loop), so
    // every visit reads and writes w's flag and residual afresh.
    auto visit = [&](int64_t w) {
      uint8_t fw = flags[w];
      if (fw == 0) touched.push_back(w);
      fw |= PushScratch::kHasResidual;
      const real_t rw = residual[w] += push;
      if ((fw & PushScratch::kQueued) == 0 &&
          std::abs(rw) >= epsilon * static_cast<real_t>(graph.OutDegree(w))) {
        fw |= PushScratch::kQueued;
        queue.push_back(w);
      }
      flags[w] = fw;
    };
    if constexpr (std::is_same_v<Graph, DynamicCkg>) {
      for (const int64_t w : graph.base().OutNeighbors(v)) visit(w);
      for (const auto& edge : graph.OverflowEdges(v)) visit(edge.second);
    } else {
      for (const int64_t w : graph.OutNeighbors(v)) visit(w);
    }
  }
  scratch->num_estimates_ += new_estimates;
  // PPR boundary: estimates feed pruning and the serving heuristic tier; a
  // non-finite entry (degenerate alpha/epsilon, corrupt graph weights) must
  // fail here rather than skew rankings downstream.
  if (FiniteChecksEnabled()) scratch->CheckEstimatesFinite();
  return counts;
}

std::unordered_map<int64_t, real_t> PprForwardPush(const Ckg& ckg,
                                                   int64_t source, real_t alpha,
                                                   real_t epsilon) {
  KUC_TRACE_SPAN("ppr.push");
  KUC_OBS_COUNT("ppr.push_calls", 1);
  KUC_CHECK_GE(source, 0);
  KUC_CHECK_LT(source, ckg.num_nodes());
  PushScratch& scratch = PushScratch::ForThisThread();
  scratch.Begin(ckg.num_nodes());
  scratch.Residual(source) = 1.0;
  const PushCounts counts =
      PushToConvergence(ckg, alpha, epsilon, {source}, &scratch);
  KUC_OBS_COUNT("ppr.push_pops", counts.pops);
  return scratch.TakeEstimates();
}

PprTable PprTable::Compute(const Ckg& ckg, PprTableOptions options,
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

// The push is compiled here for the static and the dynamic graph.
template PushCounts PushToConvergence<Ckg>(const Ckg&, real_t, real_t,
                                          const std::vector<int64_t>&,
                                          PushScratch*);
template PushCounts PushToConvergence<DynamicCkg>(const DynamicCkg&, real_t,
                                                 real_t,
                                                 const std::vector<int64_t>&,
                                                 PushScratch*);

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
