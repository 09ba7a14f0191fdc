#include "store/compact_ckg.h"

#include "util/logging.h"

namespace kucnet {

Status CompactCkg::TryBuild(
    int64_t num_users, int64_t num_items, int64_t num_kg_nodes,
    int64_t num_kg_relations,
    const std::vector<std::array<int64_t, 2>>& interactions,
    const std::vector<std::array<int64_t, 3>>& kg_triplets,
    const std::vector<std::array<int64_t, 3>>& user_triplets,
    CompactCkg* out) {
  // Mirrors Ckg::Build's direction expansion: every logical input yields a
  // forward edge (r) and its inverse (r + num_base).
  const int64_t num_base = 1 + num_kg_relations;
  auto emit = [&](const auto& sink) {
    for (const auto& [user, item] : interactions) {
      const int64_t u = user;
      const int64_t i = num_users + item;
      const bool user_ok = user >= 0 && user < num_users;
      const bool item_ok = item >= 0 && item < num_items;
      sink(user_ok ? u : -1, kInteractRelation, item_ok ? i : -1);
      sink(item_ok ? i : -1, kInteractRelation + num_base, user_ok ? u : -1);
    }
    for (const auto& [head, rel, tail] : kg_triplets) {
      const bool head_ok = head >= 0 && head < num_kg_nodes;
      const bool tail_ok = tail >= 0 && tail < num_kg_nodes;
      const bool rel_ok = rel >= 0 && rel < num_kg_relations;
      const int64_t h = num_users + head;
      const int64_t t = num_users + tail;
      const int64_t r = rel_ok ? rel + 1 : -1;
      sink(head_ok ? h : -1, r, tail_ok ? t : -1);
      sink(tail_ok ? t : -1, rel_ok ? r + num_base : -1, head_ok ? h : -1);
    }
    for (const auto& [head, rel, tail] : user_triplets) {
      const bool head_ok = head >= 0 && head < num_users;
      const bool tail_ok = tail >= 0 && tail < num_users;
      const bool rel_ok = rel >= 0 && rel < num_kg_relations;
      const int64_t r = rel_ok ? rel + 1 : -1;
      sink(head_ok ? head : -1, r, tail_ok ? tail : -1);
      sink(tail_ok ? tail : -1, rel_ok ? r + num_base : -1, head_ok ? head : -1);
    }
  };
  return TryAssemble(num_users, num_items, num_kg_nodes, num_kg_relations,
                     emit, out);
}

std::vector<int64_t> CompactCkg::ItemsOfUser(int64_t user) const {
  KUC_CHECK(IsUser(user));
  std::vector<int64_t> items;
  const auto rels = OutRelations(user);
  const auto dsts = OutNeighbors(user);
  for (size_t k = 0; k < rels.size(); ++k) {
    if (rels[k] == kInteractRelation) items.push_back(ItemOfNode(dsts[k]));
  }
  return items;
}

Status CompactCkg::ValidateTopology() const {
  const int64_t n = num_nodes();
  if (row_ptr_ == nullptr) {
    return n == 0 && num_edges_ == 0
               ? Status::Ok()
               : ErrorStatus() << "compact ckg: no storage attached";
  }
  if (row_ptr_[0] != 0) {
    return ErrorStatus() << "compact ckg: row_ptr[0] = " << row_ptr_[0]
                         << ", want 0";
  }
  for (int64_t v = 0; v < n; ++v) {
    if (row_ptr_[v + 1] < row_ptr_[v]) {
      return ErrorStatus() << "compact ckg: row_ptr not monotone at node "
                           << v;
    }
  }
  if (static_cast<int64_t>(row_ptr_[n]) != num_edges_) {
    return ErrorStatus() << "compact ckg: row_ptr[" << n << "] = "
                         << row_ptr_[n] << " but num_edges = " << num_edges_;
  }
  const int64_t num_rels = num_relations();
  for (int64_t e = 0; e < num_edges_; ++e) {
    if (static_cast<int64_t>(dst_[e]) >= n) {
      return ErrorStatus() << "compact ckg: edge " << e << " dst " << dst_[e]
                           << " out of range (nodes=" << n << ")";
    }
    if (static_cast<int64_t>(rel_[e]) >= num_rels) {
      return ErrorStatus() << "compact ckg: edge " << e << " rel " << rel_[e]
                           << " out of range (relations=" << num_rels << ")";
    }
  }
  return Status::Ok();
}

void CompactCkg::AdoptMapped(int64_t num_users, int64_t num_items,
                             int64_t num_kg_nodes, int64_t num_kg_relations,
                             int64_t num_edges, MappedFile backing,
                             const NodeId* row_ptr, const RelId* rel,
                             const NodeId* dst) {
  num_users_ = num_users;
  num_items_ = num_items;
  num_kg_nodes_ = num_kg_nodes;
  num_kg_relations_ = num_kg_relations;
  num_edges_ = num_edges;
  row_ptr_store_.reset();
  rel_store_.reset();
  dst_store_.reset();
  mapping_ = std::move(backing);
  row_ptr_ = row_ptr;
  rel_ = rel;
  dst_ = dst;
}

}  // namespace kucnet
