#include "graph/dynamic_ckg.h"

#include <algorithm>

#include "util/logging.h"

namespace kucnet {

DynamicCkg::DynamicCkg(int64_t num_users, int64_t num_items,
                       int64_t num_kg_nodes, int64_t num_kg_relations,
                       std::vector<std::array<int64_t, 2>> interactions,
                       std::vector<std::array<int64_t, 3>> kg_triplets,
                       std::vector<std::array<int64_t, 3>> user_triplets)
    : interactions_(std::move(interactions)),
      kg_triplets_(std::move(kg_triplets)),
      user_triplets_(std::move(user_triplets)) {
  const Status built =
      Ckg::TryBuild(num_users, num_items, num_kg_nodes, num_kg_relations,
                    interactions_, kg_triplets_, user_triplets_, &base_);
  KUC_CHECK(built.ok()) << built.message();
  overflow_.resize(base_.num_nodes());
  degree_.resize(base_.num_nodes());
  for (int64_t v = 0; v < base_.num_nodes(); ++v) {
    degree_[v] = base_.OutDegree(v);
  }
}

bool DynamicCkg::HasEdge(int64_t src, int64_t rel, int64_t dst) const {
  // Base CSR rows are sorted by (rel, dst): binary search on the index range.
  const auto rels = base_.OutRelations(src);
  const auto dsts = base_.OutNeighbors(src);
  int64_t lo = 0;
  int64_t hi = static_cast<int64_t>(rels.size());
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (rels[mid] < rel || (rels[mid] == rel && dsts[mid] < dst)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < static_cast<int64_t>(rels.size()) && rels[lo] == rel &&
      dsts[lo] == dst) {
    return true;
  }
  for (const auto& [r, d] : overflow_[src]) {
    if (r == rel && d == dst) return true;
  }
  return false;
}

void DynamicCkg::InsertDirected(int64_t src, int64_t rel, int64_t dst,
                                std::vector<Edge>* inserted) {
  overflow_[src].emplace_back(rel, dst);
  ++degree_[src];
  ++overflow_edges_;
  if (inserted != nullptr) inserted->push_back({src, rel, dst});
}

bool DynamicCkg::AddInteraction(int64_t user, int64_t item,
                                std::vector<Edge>* inserted) {
  KUC_CHECK_GE(user, 0);
  KUC_CHECK_LT(user, num_users());
  KUC_CHECK_GE(item, 0);
  KUC_CHECK_LT(item, num_items());
  const int64_t u = UserNode(user);
  const int64_t i = ItemNode(item);
  // Both directions are always inserted together, so checking the forward
  // edge decides for the pair.
  if (HasEdge(u, Ckg::kInteractRelation, i)) return false;
  InsertDirected(u, Ckg::kInteractRelation, i, inserted);
  InsertDirected(i, Ckg::kInteractRelation + num_base_relations(), u,
                 inserted);
  interactions_.push_back({user, item});
  return true;
}

bool DynamicCkg::AddKgTriplet(int64_t head, int64_t rel, int64_t tail,
                              std::vector<Edge>* inserted) {
  KUC_CHECK_GE(head, 0);
  KUC_CHECK_LT(head, num_kg_nodes());
  KUC_CHECK_GE(tail, 0);
  KUC_CHECK_LT(tail, num_kg_nodes());
  KUC_CHECK_GE(rel, 0);
  KUC_CHECK_LT(rel, num_kg_relations());
  const int64_t h = KgNode(head);
  const int64_t t = KgNode(tail);
  const int64_t r = rel + 1;  // CKG relation id
  if (HasEdge(h, r, t)) return false;
  InsertDirected(h, r, t, inserted);
  InsertDirected(t, r + num_base_relations(), h, inserted);
  kg_triplets_.push_back({head, rel, tail});
  return true;
}

Ckg DynamicCkg::Rebuild() const {
  Ckg g;
  const Status built =
      Ckg::TryBuild(num_users(), num_items(), num_kg_nodes(),
                    num_kg_relations(), interactions_, kg_triplets_,
                    user_triplets_, &g);
  KUC_CHECK(built.ok()) << built.message();
  return g;
}

}  // namespace kucnet
