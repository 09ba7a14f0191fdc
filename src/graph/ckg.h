#ifndef KUCNET_GRAPH_CKG_H_
#define KUCNET_GRAPH_CKG_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

/// \file
/// The Collaborative Knowledge Graph (CKG) of Sec. III.
///
/// Node id layout (global ids):
///   [0, num_users)                                user nodes
///   [num_users, num_users + num_kg_nodes)         KG nodes, where the KG's
///     own id space puts items first: KG id in [0, num_items) is an item
///     (item-entity alignment M is the identity on items), and KG ids in
///     [num_items, num_kg_nodes) are non-item entities.
///
/// Relation id layout:
///   0                         "interact" (user -> item), Sec. III
///   1 .. num_kg_relations     KG relations (head -> tail)
///   r + num_base_relations    the inverse -r of relation r (Sec. IV-B)
/// The self-loop relation id (`self_loop_relation()`) is reserved after all
/// inverses; the graph itself stores no self-loop edges — models add them
/// when building computation graphs.

namespace kucnet {

/// One directed labeled edge (n_s, r, n_o) in global ids.
struct Edge {
  int64_t src;
  int64_t rel;
  int64_t dst;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Immutable CSR-indexed collaborative knowledge graph.
class Ckg {
 public:
  /// Builds the CKG from interactions and KG triplets.
  ///
  /// \param num_users      number of user nodes
  /// \param num_items      number of items (KG ids [0, num_items))
  /// \param num_kg_nodes   total KG nodes including items (>= num_items)
  /// \param num_kg_relations number of KG relation types (ids 1..n in the
  ///        CKG; input triplets use [0, num_kg_relations))
  /// \param interactions   (user, item) pairs, item in [0, num_items)
  /// \param kg_triplets    (head, rel, tail) in KG-local ids
  /// \param user_triplets  (user, rel, user) edges between user nodes, for
  ///        datasets with user-side knowledge (e.g. DisGeNet's
  ///        disease-disease relation, Sec. V-D); rel indexes the same KG
  ///        relation space as kg_triplets
  ///
  /// Every edge is stored in both directions (r and -r).
  static Ckg Build(int64_t num_users, int64_t num_items, int64_t num_kg_nodes,
                   int64_t num_kg_relations,
                   const std::vector<std::array<int64_t, 2>>& interactions,
                   const std::vector<std::array<int64_t, 3>>& kg_triplets,
                   const std::vector<std::array<int64_t, 3>>& user_triplets = {});

  // ---- Sizes ----------------------------------------------------------------

  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }
  int64_t num_kg_nodes() const { return num_kg_nodes_; }
  int64_t num_nodes() const { return num_users_ + num_kg_nodes_; }
  int64_t num_kg_relations() const { return num_kg_relations_; }
  /// Forward relations: interact + KG relations.
  int64_t num_base_relations() const { return 1 + num_kg_relations_; }
  /// Forward + inverse relations (excluding the self-loop).
  int64_t num_relations() const { return 2 * num_base_relations(); }
  /// Reserved relation id for self-loop edges added by models.
  int64_t self_loop_relation() const { return num_relations(); }
  /// Directed edge count (both directions counted).
  int64_t num_edges() const { return static_cast<int64_t>(dst_.size()); }

  // ---- Id mapping ------------------------------------------------------------

  bool IsUser(int64_t node) const { return node < num_users_; }
  bool IsItem(int64_t node) const {
    return node >= num_users_ && node < num_users_ + num_items_;
  }
  int64_t UserNode(int64_t user) const { return user; }
  int64_t ItemNode(int64_t item) const { return num_users_ + item; }
  int64_t KgNode(int64_t kg_id) const { return num_users_ + kg_id; }
  int64_t ItemOfNode(int64_t node) const { return node - num_users_; }
  /// Inverse of relation r (involution).
  int64_t InverseRelation(int64_t rel) const {
    return rel < num_base_relations() ? rel + num_base_relations()
                                      : rel - num_base_relations();
  }
  static constexpr int64_t kInteractRelation = 0;

  // ---- Topology ---------------------------------------------------------------

  /// Out-degree of a node (counting both edge directions as stored).
  int64_t OutDegree(int64_t node) const {
    return row_ptr_[node + 1] - row_ptr_[node];
  }

  /// Relations of edges leaving `node`, parallel to OutNeighbors.
  std::span<const int64_t> OutRelations(int64_t node) const {
    return {rel_.data() + row_ptr_[node],
            static_cast<size_t>(OutDegree(node))};
  }

  /// Tail nodes of edges leaving `node`.
  std::span<const int64_t> OutNeighbors(int64_t node) const {
    return {dst_.data() + row_ptr_[node],
            static_cast<size_t>(OutDegree(node))};
  }

  /// All items a user interacted with (via the interact relation).
  std::vector<int64_t> ItemsOfUser(int64_t user) const;

 private:
  Ckg() = default;

  int64_t num_users_ = 0;
  int64_t num_items_ = 0;
  int64_t num_kg_nodes_ = 0;
  int64_t num_kg_relations_ = 0;
  // CSR over source node: edges (src -> rel_, dst_).
  std::vector<int64_t> row_ptr_;
  std::vector<int64_t> rel_;
  std::vector<int64_t> dst_;
};

}  // namespace kucnet

#endif  // KUCNET_GRAPH_CKG_H_
