#include "graph/ckg.h"

#include <algorithm>

#include "util/logging.h"

namespace kucnet {

Ckg Ckg::Build(int64_t num_users, int64_t num_items, int64_t num_kg_nodes,
               int64_t num_kg_relations,
               const std::vector<std::array<int64_t, 2>>& interactions,
               const std::vector<std::array<int64_t, 3>>& kg_triplets,
               const std::vector<std::array<int64_t, 3>>& user_triplets) {
  KUC_CHECK_GE(num_items, 0);
  KUC_CHECK_GE(num_kg_nodes, num_items);
  Ckg g;
  g.num_users_ = num_users;
  g.num_items_ = num_items;
  g.num_kg_nodes_ = num_kg_nodes;
  g.num_kg_relations_ = num_kg_relations;

  const int64_t num_base = g.num_base_relations();
  std::vector<Edge> edges;
  edges.reserve(2 * (interactions.size() + kg_triplets.size()));
  for (const auto& [user, item] : interactions) {
    KUC_CHECK_GE(user, 0);
    KUC_CHECK_LT(user, num_users);
    KUC_CHECK_GE(item, 0);
    KUC_CHECK_LT(item, num_items);
    const int64_t u = g.UserNode(user);
    const int64_t i = g.ItemNode(item);
    edges.push_back({u, kInteractRelation, i});
    edges.push_back({i, kInteractRelation + num_base, u});
  }
  for (const auto& [head, rel, tail] : kg_triplets) {
    KUC_CHECK_GE(head, 0);
    KUC_CHECK_LT(head, num_kg_nodes);
    KUC_CHECK_GE(tail, 0);
    KUC_CHECK_LT(tail, num_kg_nodes);
    KUC_CHECK_GE(rel, 0);
    KUC_CHECK_LT(rel, num_kg_relations);
    const int64_t h = g.KgNode(head);
    const int64_t t = g.KgNode(tail);
    const int64_t r = rel + 1;  // CKG relation id
    edges.push_back({h, r, t});
    edges.push_back({t, r + num_base, h});
  }
  for (const auto& [head, rel, tail] : user_triplets) {
    KUC_CHECK_GE(head, 0);
    KUC_CHECK_LT(head, num_users);
    KUC_CHECK_GE(tail, 0);
    KUC_CHECK_LT(tail, num_users);
    KUC_CHECK_GE(rel, 0);
    KUC_CHECK_LT(rel, num_kg_relations);
    const int64_t h = g.UserNode(head);
    const int64_t t = g.UserNode(tail);
    const int64_t r = rel + 1;
    edges.push_back({h, r, t});
    edges.push_back({t, r + num_base, h});
  }

  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.rel != b.rel) return a.rel < b.rel;
    return a.dst < b.dst;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  const int64_t n = g.num_nodes();
  g.row_ptr_.assign(n + 1, 0);
  g.rel_.reserve(edges.size());
  g.dst_.reserve(edges.size());
  for (const Edge& e : edges) {
    ++g.row_ptr_[e.src + 1];
    g.rel_.push_back(e.rel);
    g.dst_.push_back(e.dst);
  }
  for (int64_t v = 0; v < n; ++v) g.row_ptr_[v + 1] += g.row_ptr_[v];
  return g;
}

std::vector<int64_t> Ckg::ItemsOfUser(int64_t user) const {
  KUC_CHECK(IsUser(user));
  std::vector<int64_t> items;
  const auto rels = OutRelations(user);
  const auto dsts = OutNeighbors(user);
  for (size_t k = 0; k < rels.size(); ++k) {
    if (rels[k] == kInteractRelation) items.push_back(ItemOfNode(dsts[k]));
  }
  return items;
}

}  // namespace kucnet
