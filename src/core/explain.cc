#include "core/explain.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/logging.h"

namespace kucnet {

namespace {

/// Edges of one layer indexed by destination node.
using LayerIndex = std::multimap<int64_t, const AttributedEdge*>;

void WalkBack(const std::vector<LayerIndex>& by_layer, int32_t layer,
              int64_t node, int64_t user_node, double threshold,
              std::vector<const AttributedEdge*>& stack,
              std::vector<ExplainedPath>& out, int64_t max_paths) {
  if (static_cast<int64_t>(out.size()) >= max_paths * 8) return;  // soft cap
  if (layer == 0) {
    if (node != user_node) return;
    ExplainedPath path;
    path.min_attention = 1.0;
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      path.hops.push_back(**it);
      path.min_attention = std::min(path.min_attention, (*it)->attention);
    }
    out.push_back(std::move(path));
    return;
  }
  const auto [begin, end] = by_layer[layer - 1].equal_range(node);
  for (auto it = begin; it != end; ++it) {
    const AttributedEdge* edge = it->second;
    if (edge->attention < threshold) continue;
    stack.push_back(edge);
    WalkBack(by_layer, layer - 1, edge->src, user_node, threshold, stack, out,
             max_paths);
    stack.pop_back();
  }
}

}  // namespace

std::vector<ExplainedPath> ExplainItem(const KucnetForward& forward,
                                       const Ckg& ckg, int64_t item,
                                       double threshold, int64_t max_paths) {
  const UserCompGraph& graph = forward.graph;
  const int32_t depth = static_cast<int32_t>(graph.layers.size());
  KUC_CHECK_EQ(forward.attention.size(), graph.layers.size())
      << "ExplainItem needs a completed forward pass";
  // Attribute every edge: global endpoints plus its attention weight.
  std::vector<std::vector<AttributedEdge>> edges(depth);
  std::vector<LayerIndex> by_layer(depth);
  std::vector<int64_t> prev_nodes = {graph.user_node};
  for (int32_t l = 0; l < depth; ++l) {
    const CompLayer& layer = graph.layers[l];
    const std::vector<double>& attention = forward.attention[l];
    KUC_CHECK_EQ(static_cast<int64_t>(attention.size()), layer.num_edges());
    edges[l].reserve(attention.size());
    for (int64_t e = 0; e < layer.num_edges(); ++e) {
      edges[l].push_back({l + 1, prev_nodes[layer.src_index[e]], layer.rel[e],
                          layer.nodes[layer.dst_index[e]], attention[e]});
    }
    for (const AttributedEdge& e : edges[l]) by_layer[l].emplace(e.dst, &e);
    prev_nodes = layer.nodes;
  }
  std::vector<const AttributedEdge*> stack;
  std::vector<ExplainedPath> paths;
  WalkBack(by_layer, depth, ckg.ItemNode(item), forward.graph.user_node,
           threshold, stack, paths, max_paths);
  std::sort(paths.begin(), paths.end(),
            [](const ExplainedPath& a, const ExplainedPath& b) {
              return a.min_attention > b.min_attention;
            });
  if (static_cast<int64_t>(paths.size()) > max_paths) paths.resize(max_paths);
  return paths;
}

std::string RelationName(const Ckg& ckg, int64_t rel) {
  if (rel == ckg.self_loop_relation()) return "self";
  const bool inverse = rel >= ckg.num_base_relations();
  const int64_t base = inverse ? rel - ckg.num_base_relations() : rel;
  std::string name = base == Ckg::kInteractRelation
                         ? "interact"
                         : "kg:" + std::to_string(base - 1);
  return inverse ? "inv:" + name : name;
}

std::string NodeName(const Ckg& ckg, int64_t node) {
  if (ckg.IsUser(node)) return "user:" + std::to_string(node);
  if (ckg.IsItem(node)) return "item:" + std::to_string(ckg.ItemOfNode(node));
  return "entity:" + std::to_string(ckg.ItemOfNode(node));
}

std::string FormatPath(const ExplainedPath& path, const Ckg& ckg) {
  std::ostringstream ss;
  ss.precision(2);
  ss << std::fixed;
  bool first = true;
  for (const AttributedEdge& hop : path.hops) {
    if (hop.rel == ckg.self_loop_relation()) {
      // A padding hop: the representation stays at the node.
      if (first) {
        ss << NodeName(ckg, hop.src);
        first = false;
      }
      ss << " (stay)";
      continue;
    }
    if (first) {
      ss << NodeName(ckg, hop.src);
      first = false;
    }
    ss << " -[" << RelationName(ckg, hop.rel) << " a=" << hop.attention
       << "]-> " << NodeName(ckg, hop.dst);
  }
  return ss.str();
}

}  // namespace kucnet
