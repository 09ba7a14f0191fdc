#include "baselines/common.h"

#include <algorithm>

#include "util/logging.h"

namespace kucnet {

FlatEdges AllEdges(const Ckg& ckg) {
  FlatEdges edges;
  edges.src.reserve(ckg.num_edges());
  edges.rel.reserve(ckg.num_edges());
  edges.dst.reserve(ckg.num_edges());
  for (int64_t v = 0; v < ckg.num_nodes(); ++v) {
    const auto rels = ckg.OutRelations(v);
    const auto dsts = ckg.OutNeighbors(v);
    for (size_t k = 0; k < dsts.size(); ++k) {
      edges.src.push_back(v);
      edges.rel.push_back(rels[k]);
      edges.dst.push_back(dsts[k]);
    }
  }
  return edges;
}

std::vector<std::vector<int64_t>> ItemKgNeighbors(const Dataset& dataset) {
  std::vector<std::vector<int64_t>> out(dataset.num_items);
  const auto with_rel = ItemKgNeighborsWithRelations(dataset);
  for (int64_t i = 0; i < dataset.num_items; ++i) {
    for (const ItemNeighbor& n : with_rel[i]) out[i].push_back(n.entity);
    std::sort(out[i].begin(), out[i].end());
    out[i].erase(std::unique(out[i].begin(), out[i].end()), out[i].end());
  }
  return out;
}

std::vector<std::vector<ItemNeighbor>> ItemKgNeighborsWithRelations(
    const Dataset& dataset) {
  std::vector<std::vector<ItemNeighbor>> out(dataset.num_items);
  for (const auto& [head, rel, tail] : dataset.kg) {
    if (head < dataset.num_items) {
      out[head].push_back({tail, rel});
    }
    if (tail < dataset.num_items) {
      out[tail].push_back({head, rel});
    }
  }
  return out;
}

}  // namespace kucnet
