#ifndef KUCNET_GRAPH_COMPGRAPH_H_
#define KUCNET_GRAPH_COMPGRAPH_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "graph/ckg.h"
#include "graph/graph_ref.h"
#include "tensor/matrix.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/status.h"

/// \file
/// The (pruned) user-centric computation graph of Sec. IV-C.
///
/// For a user u, layer 0 holds {u}; layer l holds every node reachable by
/// the (pruned) edge expansion of Eq. (9)-(10). KUCNet runs one message
/// passing sweep over this structure and reads off h^L_{u:i} for *all*
/// candidate items simultaneously (Proposition 1). Pruning implements
/// Algorithm 1 line 4: per head node, keep the top-K out-edges ranked by the
/// PPR score of the tail (or K random edges for the KUCNet-random ablation).

namespace kucnet {

/// How to select the K out-edges kept per head node.
enum class PruneMode {
  kNone,    ///< keep everything (KUCNet-w.o.-PPR in Fig. 6)
  kPpr,     ///< top-K by tail PPR score (KUCNet)
  kRandom,  ///< uniform K without replacement (KUCNet-random, Table IX)
};

/// Options for building user-centric computation graphs.
struct CompGraphOptions {
  int32_t depth = 3;               ///< L, number of message passing layers
  int64_t max_edges_per_node = 0;  ///< K; 0 disables pruning
  PruneMode prune = PruneMode::kPpr;
  /// Adds (n, self, n) for every active node so representations persist
  /// across layers (path padding of Sec. IV-B). Self-loops do not count
  /// against K.
  bool self_loops = true;
};

/// Edges of one layer, with endpoints as *dense indices* into the adjacent
/// layers' node lists — ready for Gather/SegmentSum message passing.
struct CompLayer {
  std::vector<int64_t> src_index;  ///< index into previous layer's nodes
  std::vector<int64_t> rel;        ///< CKG relation id (may be self-loop)
  std::vector<int64_t> dst_index;  ///< index into this layer's nodes
  std::vector<int64_t> nodes;      ///< global ids of this layer's nodes

  int64_t num_edges() const { return static_cast<int64_t>(rel.size()); }
};

/// A fully built computation graph for one user.
struct UserCompGraph {
  int64_t user_node = -1;
  std::vector<CompLayer> layers;  ///< size = depth

  /// Total edge count (used for Fig. 6's cost accounting).
  int64_t TotalEdges() const;

  /// Dense index of `node` in the final layer, or -1 if unreachable
  /// (Algorithm 1 then scores it as h = 0).
  int64_t FinalIndexOf(int64_t node) const;

  /// Number of nodes in the final layer.
  int64_t FinalSize() const {
    return layers.empty() ? 0
                          : static_cast<int64_t>(layers.back().nodes.size());
  }

  std::unordered_map<int64_t, int64_t> final_index;  ///< node -> dense index
};

/// Scores nodes for PPR pruning; must return a value for every node id
/// (0 for unranked nodes is fine).
using NodeScoreFn = std::function<real_t(int64_t)>;

/// A (user_node, item_node) interact edge to hide while building, used to
/// drop the positive target edges of the current training batch so the model
/// cannot shortcut through them (standard subgraph-learning practice).
struct ExcludedPair {
  int64_t user_node;
  int64_t item_node;
};

/// Converts a per-pair layered computation graph (global-id edges from
/// `ExtractUiComputationGraph`) into the dense-indexed `UserCompGraph` form
/// so the same message-passing kernel can run on it. Used by the
/// KUCNet-UI cost baseline of Fig. 6.
UserCompGraph FromLayeredEdges(
    const std::vector<std::vector<Edge>>& layers, int64_t user_node);

/// Builds pruned user-centric computation graphs over a CKG.
class CompGraphBuilder {
 public:
  CompGraphBuilder(GraphRef graph, CompGraphOptions options);

  const CompGraphOptions& options() const { return options_; }

  /// Builds the graph for `user_node` into `*out`. The expansion loop hits
  /// the `ctx` checkpoint (stage "subgraph") once per expanded head node,
  /// so a request deadline or injected fault abandons the expansion instead
  /// of materializing every layer. On cancellation `*out` is reset and the
  /// status returned; an unbounded `ExecContext()` never cancels.
  ///
  /// \param score  required iff prune == kPpr
  /// \param rng    required iff prune == kRandom
  /// \param excluded  interact edges (both directions) to hide
  Status TryBuild(int64_t user_node, const NodeScoreFn* score, Rng* rng,
                  const std::vector<ExcludedPair>& excluded,
                  const ExecContext& ctx, UserCompGraph* out) const;

 private:
  const Ckg* ckg_;
  CompGraphOptions options_;
};

}  // namespace kucnet

#endif  // KUCNET_GRAPH_COMPGRAPH_H_
