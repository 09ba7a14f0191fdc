#ifndef KUCNET_GRAPH_SUBGRAPH_H_
#define KUCNET_GRAPH_SUBGRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/ckg.h"

/// \file
/// U-I subgraphs (Definition 2) and their per-pair computation graphs
/// (Eq. 8). These are the semantic objects KUCNet encodes; the efficient
/// implementation (Sec. IV-C) computes on the merged user-centric graph
/// instead, and Proposition 1 (tested in tests/graph_test.cc) guarantees the
/// merged graph subsumes every per-pair graph.

namespace kucnet {

/// Bounded BFS from `source`: distances[v] = shortest-path hops (ignoring
/// direction is unnecessary: the CKG stores both directions), or -1 if
/// v is farther than `max_depth` (or unreachable).
std::vector<int32_t> BfsDistances(const Ckg& ckg, int64_t source,
                                  int32_t max_depth);

/// The U-I subgraph G_{u,i|L} of Definition 2: nodes whose summed distance
/// to u and i is at most L, and all edges among them.
struct UiSubgraph {
  std::vector<int64_t> nodes;  ///< sorted global node ids
  std::vector<Edge> edges;     ///< all CKG edges with both endpoints in nodes
};

/// Extracts G_{u,i|L} for the pair (u, i); `item_node` is a global node id.
UiSubgraph ExtractUiSubgraph(const Ckg& ckg, int64_t user_node,
                             int64_t item_node, int32_t depth);

/// The layered computation graph C_{u,i|L} of Eq. (8): edge (s, r, o) is at
/// layer l (1-based) iff s is reachable from u within l-1 hops and o can
/// reach i within L-l hops. With self-loop padding this contains exactly the
/// messages that can influence h^L_{u:i}.
struct LayeredEdges {
  /// layers[l-1] holds the edges of hop l, l = 1..L.
  std::vector<std::vector<Edge>> layers;

  /// Total number of edges across layers.
  int64_t TotalEdges() const;
};

/// Builds C_{u,i|L}. Self-loop edges (n, self, n) are included at layer l for
/// every node active at both endpoints' constraints, so shorter paths are
/// padded to length exactly L as in Sec. IV-B.
LayeredEdges ExtractUiComputationGraph(const Ckg& ckg, int64_t user_node,
                                       int64_t item_node, int32_t depth);

}  // namespace kucnet

#endif  // KUCNET_GRAPH_SUBGRAPH_H_
