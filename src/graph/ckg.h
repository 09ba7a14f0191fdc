#ifndef KUCNET_GRAPH_CKG_H_
#define KUCNET_GRAPH_CKG_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/fs.h"
#include "util/status.h"

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
///
/// Storage (DESIGN.md §5g): one CSR over source nodes with `uint32_t` row
/// pointers, `uint16_t` relations and `uint32_t` destinations, one
/// contiguous array each — 6 bytes per edge and 4 per node. The arrays are
/// either owned (built in memory) or borrowed from a memory-mapped KUCSTOR1
/// container (store/container.h), in which case the graph keeps the mapping
/// alive and the kernel pages edges in lazily. The span accessors yield the
/// narrow types, which widen to `int64_t` where they are used. Construction
/// fails with a recoverable Status once `num_nodes()` exceeds kMaxNodes, the
/// directed edge count kMaxEdges or `num_relations()` kMaxRelations; ids are
/// never silently truncated.

namespace kucnet {

/// One directed labeled edge (n_s, r, n_o) in global ids.
struct Edge {
  int64_t src;
  int64_t rel;
  int64_t dst;

  friend bool operator==(const Edge&, const Edge&) = default;
};

struct StoreLoadOptions;
struct StoreLoadStats;

/// Immutable CSR-indexed collaborative knowledge graph. Move-only.
class Ckg {
 public:
  using NodeId = uint32_t;
  using RelId = uint16_t;

  /// Capacity limits of the typed ids (see the overflow policy above).
  static constexpr int64_t kMaxNodes = int64_t{UINT32_MAX} - 1;
  static constexpr int64_t kMaxEdges = int64_t{UINT32_MAX};
  static constexpr int64_t kMaxRelations = int64_t{UINT16_MAX};

  /// An empty graph (no nodes, no storage).
  Ckg() = default;

  /// Builds the CKG from interactions and KG triplets into `*out`; fails on
  /// id overflow or out-of-range inputs.
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
  /// Every edge is stored in both directions (r and -r). Each source's row
  /// is ordered by (rel, dst), and duplicate edges are collapsed.
  static Status TryBuild(
      int64_t num_users, int64_t num_items, int64_t num_kg_nodes,
      int64_t num_kg_relations,
      const std::vector<std::array<int64_t, 2>>& interactions,
      const std::vector<std::array<int64_t, 3>>& kg_triplets,
      const std::vector<std::array<int64_t, 3>>& user_triplets, Ckg* out);

  /// Streaming two-pass assembly, the one builder: `emit` is called exactly
  /// twice with a sink `void(int64_t src, int64_t rel, int64_t dst)` and
  /// must produce the identical *directed* CKG-id edge sequence both times
  /// (pass 1 counts degrees, pass 2 fills the arrays; each row is then
  /// sorted by (rel, dst) and deduplicated). Nothing beyond the final
  /// arrays and a per-row sort buffer is held, so the web-scale generator
  /// streams 10⁷ triplets in without materializing them.
  template <typename EmitFn>
  static Status TryAssemble(int64_t num_users, int64_t num_items,
                            int64_t num_kg_nodes, int64_t num_kg_relations,
                            EmitFn&& emit, Ckg* out);

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
  int64_t num_edges() const { return num_edges_; }

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
    return static_cast<int64_t>(row_ptr_[node + 1]) -
           static_cast<int64_t>(row_ptr_[node]);
  }

  /// Relations of edges leaving `node`, parallel to OutNeighbors.
  std::span<const RelId> OutRelations(int64_t node) const {
    return {rel_ + row_ptr_[node], static_cast<size_t>(OutDegree(node))};
  }

  /// Tail nodes of edges leaving `node`.
  std::span<const NodeId> OutNeighbors(int64_t node) const {
    return {dst_ + row_ptr_[node], static_cast<size_t>(OutDegree(node))};
  }

  /// All items a user interacted with (via the interact relation).
  std::vector<int64_t> ItemsOfUser(int64_t user) const;

  // ---- Storage ----------------------------------------------------------------

  /// Raw CSR arrays, for serialization (store/container.cc).
  std::span<const NodeId> raw_row_ptr() const {
    return {row_ptr_, row_ptr_ != nullptr
                          ? static_cast<size_t>(num_nodes() + 1)
                          : 0};
  }
  std::span<const RelId> raw_rel() const {
    return {rel_, static_cast<size_t>(num_edges_)};
  }
  std::span<const NodeId> raw_dst() const {
    return {dst_, static_cast<size_t>(num_edges_)};
  }

  /// Bytes held by the three CSR arrays (whether owned or mapped).
  int64_t bytes_resident() const {
    return (num_nodes() + 1) * int64_t{sizeof(NodeId)} +
           num_edges_ * int64_t{sizeof(RelId) + sizeof(NodeId)};
  }

  /// True when the arrays point into a memory-mapped container file.
  bool mmap_backed() const { return mapping_.is_mmap(); }

  /// O(n + E) structural validation: row pointers monotone and edge ids in
  /// range. Used by tests and untrusted-file loads; regular loads rely on
  /// section checksums instead.
  Status ValidateTopology() const;

 private:
  friend Status LoadCkgContainer(FileSystem& fs, const std::string& path,
                                 const StoreLoadOptions& options, Ckg* out,
                                 StoreLoadStats* stats);

  /// Points the graph at externally-validated container sections, keeping
  /// `backing` (the whole file's mapping) alive. Loader-only.
  void AdoptMapped(int64_t num_users, int64_t num_items, int64_t num_kg_nodes,
                   int64_t num_kg_relations, int64_t num_edges,
                   MappedFile backing, const NodeId* row_ptr,
                   const RelId* rel, const NodeId* dst);

  int64_t num_users_ = 0;
  int64_t num_items_ = 0;
  int64_t num_kg_nodes_ = 0;
  int64_t num_kg_relations_ = 0;
  int64_t num_edges_ = 0;

  // Views into either the owned arrays below or `mapping_`.
  const NodeId* row_ptr_ = nullptr;
  const RelId* rel_ = nullptr;
  const NodeId* dst_ = nullptr;

  // Owned storage: one contiguous allocation per array.
  std::unique_ptr<NodeId[]> row_ptr_store_;
  std::unique_ptr<RelId[]> rel_store_;
  std::unique_ptr<NodeId[]> dst_store_;

  // Backing file mapping when loaded zero-copy from a container.
  MappedFile mapping_;
};

// ---- Template implementation ------------------------------------------------

template <typename EmitFn>
Status Ckg::TryAssemble(int64_t num_users, int64_t num_items,
                        int64_t num_kg_nodes, int64_t num_kg_relations,
                        EmitFn&& emit, Ckg* out) {
  if (num_users < 0 || num_items < 0 || num_kg_nodes < num_items ||
      num_kg_relations < 0) {
    return ErrorStatus() << "ckg: invalid sizes (users=" << num_users
                         << " items=" << num_items
                         << " kg_nodes=" << num_kg_nodes
                         << " kg_relations=" << num_kg_relations << ")";
  }
  Ckg g;
  g.num_users_ = num_users;
  g.num_items_ = num_items;
  g.num_kg_nodes_ = num_kg_nodes;
  g.num_kg_relations_ = num_kg_relations;
  const int64_t n = g.num_nodes();
  if (n > kMaxNodes) {
    return ErrorStatus() << "ckg: " << n << " nodes overflow 32-bit ids (max "
                         << kMaxNodes << ")";
  }
  if (g.num_relations() > kMaxRelations) {
    return ErrorStatus() << "ckg: " << g.num_relations()
                         << " relations overflow 16-bit ids (max "
                         << kMaxRelations << ")";
  }
  const int64_t num_rels = g.num_relations();

  // Pass 1: count per-source degrees, validating every edge.
  std::unique_ptr<NodeId[]> row_ptr(new NodeId[n + 1]());
  uint64_t total = 0;
  Status edge_error;
  bool over_capacity = false;
  emit([&](int64_t src, int64_t rel, int64_t dst) {
    if (!edge_error.ok() || over_capacity) return;
    if (src < 0 || src >= n || dst < 0 || dst >= n || rel < 0 ||
        rel >= num_rels) {
      edge_error = ErrorStatus()
                   << "ckg: edge (" << src << ", " << rel << ", " << dst
                   << ") out of range (nodes=" << n
                   << " relations=" << num_rels << ")";
      return;
    }
    if (total == static_cast<uint64_t>(kMaxEdges)) {
      over_capacity = true;
      return;
    }
    ++row_ptr[src + 1];
    ++total;
  });
  KUC_RETURN_IF_ERROR(edge_error);
  if (over_capacity) {
    return ErrorStatus() << "ckg: directed edge count overflows 32-bit ids "
                         << "(max " << kMaxEdges << ")";
  }
  for (int64_t v = 0; v < n; ++v) row_ptr[v + 1] += row_ptr[v];

  // Pass 2: fill the arenas through per-row cursors.
  std::unique_ptr<RelId[]> rel_store(new RelId[total > 0 ? total : 1]);
  std::unique_ptr<NodeId[]> dst_store(new NodeId[total > 0 ? total : 1]);
  std::unique_ptr<NodeId[]> cursor(new NodeId[n > 0 ? n : 1]);
  for (int64_t v = 0; v < n; ++v) cursor[v] = row_ptr[v];
  uint64_t second_pass = 0;
  emit([&](int64_t src, int64_t rel, int64_t dst) {
    if (!edge_error.ok()) return;
    if (second_pass == total) {
      edge_error = ErrorStatus()
                   << "ckg: emit produced more edges on pass 2 than pass 1 "
                   << "(stream is not deterministic)";
      return;
    }
    // Re-validate every edge: pass 1 only established per-row *counts*, so a
    // content-divergent second pass with the same total would otherwise
    // index `cursor` out of range or run writes past its row into a
    // neighbor's — silent arena corruption instead of a Status.
    if (src < 0 || src >= n || dst < 0 || dst >= n || rel < 0 ||
        rel >= num_rels || cursor[src] >= row_ptr[src + 1]) {
      edge_error = ErrorStatus()
                   << "ckg: pass 2 emitted edge (" << src << ", " << rel
                   << ", " << dst << ") that diverges from pass 1 (stream "
                   << "is not deterministic)";
      return;
    }
    const NodeId at = cursor[src]++;
    rel_store[at] = static_cast<RelId>(rel);
    dst_store[at] = static_cast<NodeId>(dst);
    ++second_pass;
  });
  KUC_RETURN_IF_ERROR(edge_error);
  if (second_pass != total) {
    return ErrorStatus() << "ckg: emit produced " << second_pass
                         << " edges on pass 2 vs " << total
                         << " on pass 1 (stream is not deterministic)";
  }

  // Sort each row by (rel, dst) and collapse duplicates, so PPR and
  // extraction visit neighbors in one fixed order.
  std::vector<uint64_t> keys;
  uint64_t write = 0;
  for (int64_t v = 0; v < n; ++v) {
    const NodeId begin = row_ptr[v];
    const NodeId end = row_ptr[v + 1];
    keys.clear();
    for (NodeId k = begin; k < end; ++k) {
      keys.push_back((uint64_t{rel_store[k]} << 32) | uint64_t{dst_store[k]});
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    row_ptr[v] = static_cast<NodeId>(write);
    for (const uint64_t key : keys) {
      rel_store[write] = static_cast<RelId>(key >> 32);
      dst_store[write] = static_cast<NodeId>(key & 0xffffffffu);
      ++write;
    }
  }
  row_ptr[n] = static_cast<NodeId>(write);

  if (write != total) {
    // Dedup shrank the arrays; re-allocate exactly so bytes_resident() is
    // honest (one contiguous allocation per array, no slack).
    std::unique_ptr<RelId[]> rel_exact(new RelId[write > 0 ? write : 1]);
    std::unique_ptr<NodeId[]> dst_exact(new NodeId[write > 0 ? write : 1]);
    std::copy(rel_store.get(), rel_store.get() + write, rel_exact.get());
    std::copy(dst_store.get(), dst_store.get() + write, dst_exact.get());
    rel_store = std::move(rel_exact);
    dst_store = std::move(dst_exact);
  }

  g.num_edges_ = static_cast<int64_t>(write);
  g.row_ptr_store_ = std::move(row_ptr);
  g.rel_store_ = std::move(rel_store);
  g.dst_store_ = std::move(dst_store);
  g.row_ptr_ = g.row_ptr_store_.get();
  g.rel_ = g.rel_store_.get();
  g.dst_ = g.dst_store_.get();
  *out = std::move(g);
  return Status::Ok();
}

}  // namespace kucnet

#endif  // KUCNET_GRAPH_CKG_H_
