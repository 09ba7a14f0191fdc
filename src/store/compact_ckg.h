#ifndef KUCNET_STORE_COMPACT_CKG_H_
#define KUCNET_STORE_COMPACT_CKG_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/fs.h"
#include "util/status.h"

/// \file
/// CompactCkg: the typed, arena-backed CSR storage of the web-scale data
/// plane (DESIGN.md §5g).
///
/// `Ckg` stores every edge as three `int64_t`s (16 bytes/edge + 8 bytes/node
/// of row pointers). At 10⁶ users / 10⁷ triplets that wastes most of the
/// memory bus on zero bytes: node ids fit in 32 bits and relation ids in 16.
/// CompactCkg stores the same CSR as one contiguous allocation per array —
/// `uint32_t` row pointers, `uint16_t` relations, `uint32_t` destinations
/// (6 bytes/edge + 4 bytes/node, ~37% of the int64 footprint) — and exposes
/// the same `OutDegree` / `OutRelations` / `OutNeighbors` span API, so the
/// templated hot paths (PPR push, BFS, subgraph extraction, dynamic overlay)
/// run on either representation unchanged. The spans yield unsigned narrow
/// types that widen implicitly to `int64_t` at use sites, keeping the int64
/// code path bitwise identical.
///
/// The arrays can be *owned* (built in memory) or *borrowed* from a
/// memory-mapped container file (store/container.h), in which case the
/// CompactCkg keeps the mapping alive and the kernel pages edges in lazily.
///
/// Id-space layout and relation-id conventions are identical to `Ckg`
/// (graph/ckg.h); overflow policy: construction fails with a recoverable
/// Status once `num_nodes() + 1` exceeds `uint32_t`, the directed edge count
/// exceeds `uint32_t`, or `num_relations()` exceeds `uint16_t` — ids are
/// never silently truncated.

namespace kucnet {

/// Immutable CSR collaborative knowledge graph with 32-bit node ids and
/// 16-bit relation ids. API mirrors `Ckg`.
class CompactCkg {
 public:
  using NodeId = uint32_t;
  using RelId = uint16_t;

  /// Hard capacity limits (see overflow policy above).
  static constexpr int64_t kMaxNodes = int64_t{UINT32_MAX} - 1;
  static constexpr int64_t kMaxEdges = int64_t{UINT32_MAX};
  static constexpr int64_t kMaxRelations = int64_t{UINT16_MAX};

  CompactCkg() = default;

  /// Builds from the same inputs as `Ckg::Build` (both edge directions
  /// stored, global (src, rel, dst) order, duplicates collapsed). Fails on
  /// id overflow or out-of-range inputs instead of aborting.
  static Status TryBuild(
      int64_t num_users, int64_t num_items, int64_t num_kg_nodes,
      int64_t num_kg_relations,
      const std::vector<std::array<int64_t, 2>>& interactions,
      const std::vector<std::array<int64_t, 3>>& kg_triplets,
      const std::vector<std::array<int64_t, 3>>& user_triplets,
      CompactCkg* out);

  /// Streaming two-pass assembly: `emit` is called exactly twice with a
  /// sink `void(int64_t src, int64_t rel, int64_t dst)` and must produce
  /// the identical *directed* CKG-id edge sequence both times (pass 1
  /// counts degrees, pass 2 fills the arrays; rows are then sorted and
  /// deduplicated to match `Ckg::Build` semantics). O(1) memory per edge:
  /// nothing beyond the final arrays and a per-row sort buffer is held.
  /// This is how the web-scale generator streams 10⁷ triplets into the
  /// store without materializing `vector<array<int64_t, 3>>`.
  template <typename EmitFn>
  static Status TryAssemble(int64_t num_users, int64_t num_items,
                            int64_t num_kg_nodes, int64_t num_kg_relations,
                            EmitFn&& emit, CompactCkg* out);

  // ---- Sizes (identical to Ckg) ---------------------------------------------

  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }
  int64_t num_kg_nodes() const { return num_kg_nodes_; }
  int64_t num_nodes() const { return num_users_ + num_kg_nodes_; }
  int64_t num_kg_relations() const { return num_kg_relations_; }
  int64_t num_base_relations() const { return 1 + num_kg_relations_; }
  int64_t num_relations() const { return 2 * num_base_relations(); }
  int64_t self_loop_relation() const { return num_relations(); }
  int64_t num_edges() const { return num_edges_; }

  // ---- Id mapping (identical to Ckg) ----------------------------------------

  bool IsUser(int64_t node) const { return node < num_users_; }
  bool IsItem(int64_t node) const {
    return node >= num_users_ && node < num_users_ + num_items_;
  }
  int64_t UserNode(int64_t user) const { return user; }
  int64_t ItemNode(int64_t item) const { return num_users_ + item; }
  int64_t KgNode(int64_t kg_id) const { return num_users_ + kg_id; }
  int64_t ItemOfNode(int64_t node) const { return node - num_users_; }
  int64_t InverseRelation(int64_t rel) const {
    return rel < num_base_relations() ? rel + num_base_relations()
                                      : rel - num_base_relations();
  }
  static constexpr int64_t kInteractRelation = 0;

  // ---- Topology -------------------------------------------------------------

  int64_t OutDegree(int64_t node) const {
    return static_cast<int64_t>(row_ptr_[node + 1]) -
           static_cast<int64_t>(row_ptr_[node]);
  }

  /// Relations of edges leaving `node`; elements widen to int64_t at use.
  std::span<const RelId> OutRelations(int64_t node) const {
    return {rel_ + row_ptr_[node], static_cast<size_t>(OutDegree(node))};
  }

  /// Tail nodes of edges leaving `node`; elements widen to int64_t at use.
  std::span<const NodeId> OutNeighbors(int64_t node) const {
    return {dst_ + row_ptr_[node], static_cast<size_t>(OutDegree(node))};
  }

  /// All items a user interacted with (via the interact relation).
  std::vector<int64_t> ItemsOfUser(int64_t user) const;

  // ---- Storage introspection ------------------------------------------------

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
  friend Status LoadCompactCkg(FileSystem& fs, const std::string& path,
                               const struct StoreLoadOptions& options,
                               CompactCkg* out, struct StoreLoadStats* stats);

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

  // Views into either the owned arenas below or `mapping_`.
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
Status CompactCkg::TryAssemble(int64_t num_users, int64_t num_items,
                               int64_t num_kg_nodes, int64_t num_kg_relations,
                               EmitFn&& emit, CompactCkg* out) {
  if (num_users < 0 || num_items < 0 || num_kg_nodes < num_items ||
      num_kg_relations < 0) {
    return ErrorStatus() << "compact ckg: invalid sizes (users=" << num_users
                         << " items=" << num_items
                         << " kg_nodes=" << num_kg_nodes
                         << " kg_relations=" << num_kg_relations << ")";
  }
  CompactCkg g;
  g.num_users_ = num_users;
  g.num_items_ = num_items;
  g.num_kg_nodes_ = num_kg_nodes;
  g.num_kg_relations_ = num_kg_relations;
  const int64_t n = g.num_nodes();
  if (n > kMaxNodes) {
    return ErrorStatus() << "compact ckg: " << n << " nodes overflow 32-bit "
                         << "ids (max " << kMaxNodes << ")";
  }
  if (g.num_relations() > kMaxRelations) {
    return ErrorStatus() << "compact ckg: " << g.num_relations()
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
                   << "compact ckg: edge (" << src << ", " << rel << ", "
                   << dst << ") out of range (nodes=" << n
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
    return ErrorStatus() << "compact ckg: directed edge count overflows "
                         << "32-bit ids (max " << kMaxEdges << ")";
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
                   << "compact ckg: emit produced more edges on pass 2 than "
                   << "pass 1 (stream is not deterministic)";
      return;
    }
    // Re-validate every edge: pass 1 only established per-row *counts*, so a
    // content-divergent second pass with the same total would otherwise
    // index `cursor` out of range or run writes past its row into a
    // neighbor's — silent arena corruption instead of a Status.
    if (src < 0 || src >= n || dst < 0 || dst >= n || rel < 0 ||
        rel >= num_rels || cursor[src] >= row_ptr[src + 1]) {
      edge_error = ErrorStatus()
                   << "compact ckg: pass 2 emitted edge (" << src << ", "
                   << rel << ", " << dst
                   << ") that diverges from pass 1 (stream is not "
                   << "deterministic)";
      return;
    }
    const NodeId at = cursor[src]++;
    rel_store[at] = static_cast<RelId>(rel);
    dst_store[at] = static_cast<NodeId>(dst);
    ++second_pass;
  });
  KUC_RETURN_IF_ERROR(edge_error);
  if (second_pass != total) {
    return ErrorStatus() << "compact ckg: emit produced " << second_pass
                         << " edges on pass 2 vs " << total
                         << " on pass 1 (stream is not deterministic)";
  }

  // Sort each row by (rel, dst) and collapse duplicates — the same order
  // and dedup `Ckg::Build`'s global sort produces, so PPR and extraction
  // visit neighbors in bitwise-identical order on both representations.
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
    // honest ("one contiguous allocation per array", no slack capacity).
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

#endif  // KUCNET_STORE_COMPACT_CKG_H_
