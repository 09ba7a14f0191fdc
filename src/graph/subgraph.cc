#include "graph/subgraph.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "obs/trace.h"
#include "store/compact_ckg.h"
#include "util/logging.h"

namespace kucnet {

template <typename Graph>
std::vector<int32_t> BfsDistances(const Graph& ckg, int64_t source,
                                  int32_t max_depth) {
  KUC_TRACE_SPAN("subgraph.bfs");
  KUC_CHECK_GE(source, 0);
  KUC_CHECK_LT(source, ckg.num_nodes());
  std::vector<int32_t> dist(ckg.num_nodes(), -1);
  dist[source] = 0;
  std::deque<int64_t> frontier = {source};
  while (!frontier.empty()) {
    const int64_t v = frontier.front();
    frontier.pop_front();
    if (dist[v] >= max_depth) continue;
    for (const int64_t w : ckg.OutNeighbors(v)) {
      if (dist[w] < 0) {
        dist[w] = dist[v] + 1;
        frontier.push_back(w);
      }
    }
  }
  return dist;
}

template <typename Graph>
UiSubgraph ExtractUiSubgraph(const Graph& ckg, int64_t user_node,
                             int64_t item_node, int32_t depth) {
  const auto du = BfsDistances(ckg, user_node, depth);
  const auto di = BfsDistances(ckg, item_node, depth);
  UiSubgraph sg;
  std::vector<bool> in_set(ckg.num_nodes(), false);
  for (int64_t v = 0; v < ckg.num_nodes(); ++v) {
    if (du[v] >= 0 && di[v] >= 0 && du[v] + di[v] <= depth) {
      in_set[v] = true;
      sg.nodes.push_back(v);
    }
  }
  for (const int64_t v : sg.nodes) {
    const auto rels = ckg.OutRelations(v);
    const auto dsts = ckg.OutNeighbors(v);
    for (size_t k = 0; k < dsts.size(); ++k) {
      if (in_set[dsts[k]]) sg.edges.push_back({v, rels[k], dsts[k]});
    }
  }
  return sg;
}

int64_t LayeredEdges::TotalEdges() const {
  int64_t total = 0;
  for (const auto& layer : layers) total += static_cast<int64_t>(layer.size());
  return total;
}

template <typename Graph>
LayeredEdges ExtractUiComputationGraph(const Graph& ckg, int64_t user_node,
                                       int64_t item_node, int32_t depth) {
  KUC_TRACE_SPAN("subgraph.extract");
  const auto du = BfsDistances(ckg, user_node, depth);
  const auto di = BfsDistances(ckg, item_node, depth);
  const int64_t self_rel = ckg.self_loop_relation();
  LayeredEdges out;
  out.layers.resize(depth);
  for (int32_t l = 1; l <= depth; ++l) {
    auto& layer = out.layers[l - 1];
    // A node can be the source of a layer-l edge if it is within l-1 hops of
    // u; the destination must reach i within depth-l hops.
    for (int64_t v = 0; v < ckg.num_nodes(); ++v) {
      if (du[v] < 0 || du[v] > l - 1) continue;
      // Self-loop padding: (v, self, v) if v can still reach i in time.
      if (di[v] >= 0 && di[v] <= depth - l) {
        layer.push_back({v, self_rel, v});
      }
      const auto rels = ckg.OutRelations(v);
      const auto dsts = ckg.OutNeighbors(v);
      for (size_t k = 0; k < dsts.size(); ++k) {
        const int64_t w = dsts[k];
        if (di[w] >= 0 && di[w] <= depth - l) {
          layer.push_back({v, rels[k], w});
        }
      }
    }
  }
  return out;
}

// The BFS/extraction hot paths are compiled here once per graph
// representation; the Ckg instantiation is the pre-store code, bit for bit.
template std::vector<int32_t> BfsDistances<Ckg>(const Ckg&, int64_t, int32_t);
template std::vector<int32_t> BfsDistances<CompactCkg>(const CompactCkg&,
                                                       int64_t, int32_t);
template UiSubgraph ExtractUiSubgraph<Ckg>(const Ckg&, int64_t, int64_t,
                                           int32_t);
template UiSubgraph ExtractUiSubgraph<CompactCkg>(const CompactCkg&, int64_t,
                                                  int64_t, int32_t);
template LayeredEdges ExtractUiComputationGraph<Ckg>(const Ckg&, int64_t,
                                                     int64_t, int32_t);
template LayeredEdges ExtractUiComputationGraph<CompactCkg>(const CompactCkg&,
                                                            int64_t, int64_t,
                                                            int32_t);

}  // namespace kucnet
