#include "graph/compgraph.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/logging.h"

namespace kucnet {

namespace {

/// Packs an undirected (user, item) pair for the exclusion set.
uint64_t PackPair(int64_t a, int64_t b) {
  return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
}

/// One candidate out-edge during expansion.
struct Candidate {
  int64_t rel;
  int64_t dst;
  real_t score;  // tail PPR score under kPpr
};

}  // namespace

int64_t UserCompGraph::TotalEdges() const {
  int64_t total = 0;
  for (const auto& layer : layers) total += layer.num_edges();
  return total;
}

int64_t UserCompGraph::FinalIndexOf(int64_t node) const {
  const auto it = final_index.find(node);
  return it == final_index.end() ? -1 : it->second;
}

UserCompGraph FromLayeredEdges(
    const std::vector<std::vector<Edge>>& layers, int64_t user_node) {
  UserCompGraph graph;
  graph.user_node = user_node;
  graph.layers.resize(layers.size());
  std::unordered_map<int64_t, int64_t> prev_index = {{user_node, 0}};
  for (size_t l = 0; l < layers.size(); ++l) {
    CompLayer& layer = graph.layers[l];
    std::unordered_map<int64_t, int64_t> cur_index;
    for (const Edge& e : layers[l]) {
      const auto src_it = prev_index.find(e.src);
      KUC_CHECK(src_it != prev_index.end())
          << "layer " << l + 1 << " edge source " << e.src
          << " absent from layer " << l;
      const auto [dst_it, inserted] =
          cur_index.emplace(e.dst, static_cast<int64_t>(layer.nodes.size()));
      if (inserted) layer.nodes.push_back(e.dst);
      layer.src_index.push_back(src_it->second);
      layer.rel.push_back(e.rel);
      layer.dst_index.push_back(dst_it->second);
    }
    prev_index = std::move(cur_index);
  }
  graph.final_index = std::move(prev_index);
  return graph;
}

CompGraphBuilder::CompGraphBuilder(GraphRef graph, CompGraphOptions options)
    : ckg_(graph.get()), options_(options) {
  KUC_CHECK(ckg_ != nullptr);
  KUC_CHECK_GE(options.depth, 1);
  KUC_CHECK_GE(options.max_edges_per_node, 0);
}

UserCompGraph CompGraphBuilder::Build(
    int64_t user_node, const NodeScoreFn* score, Rng* rng,
    const std::vector<ExcludedPair>& excluded) const {
  UserCompGraph graph;
  const Status status =
      TryBuild(user_node, score, rng, excluded, ExecContext(), &graph);
  KUC_CHECK(status.ok()) << status.message();
  return graph;
}

namespace {

/// Per-thread expansion state, like the PPR push's PushScratch: `slot[v]`
/// is node v's dense index in the layer being built, kNoSlot when v is not
/// in it. Sized to the largest graph this thread has built on; every slot
/// is kNoSlot between builds, because each layer resets the slots of its
/// own node list when it ends, a cancelled layer included. The candidate
/// buffers and the sorted exclusion keys are reused across builds.
struct BuildScratch {
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  static BuildScratch& ForThisThread() {
    static thread_local BuildScratch scratch;
    return scratch;
  }

  void Begin(int64_t num_nodes) {
    KUC_CHECK(!in_use) << "CompGraphBuilder: a build re-entered its thread's "
                          "scratch (from a NodeScoreFn?)";
    // Dense indices of one layer stay below its node count.
    KUC_CHECK_LT(num_nodes, int64_t{kNoSlot});
    if (slot.size() < static_cast<size_t>(num_nodes)) {
      slot.resize(static_cast<size_t>(num_nodes), kNoSlot);
    }
    in_use = true;
  }

  /// Dense index of `node` in `layer`, appending it on first sight.
  int64_t IndexOf(int64_t node, CompLayer* layer) {
    uint32_t& s = slot[static_cast<size_t>(node)];
    if (s == kNoSlot) {
      s = static_cast<uint32_t>(layer->nodes.size());
      layer->nodes.push_back(node);
    }
    return s;
  }

  void EndLayer(const CompLayer& layer) {
    for (const int64_t node : layer.nodes) {
      slot[static_cast<size_t>(node)] = kNoSlot;
    }
  }

  std::vector<uint32_t> slot;
  std::vector<Candidate> candidates;
  std::vector<Candidate> kept;
  std::vector<uint64_t> excluded;  ///< PackPair keys, both directions, sorted
  bool in_use = false;
};

}  // namespace

// Node indices go through the thread's BuildScratch slots rather than a hash
// map, and final_index is filled once from the last layer's node list.
Status CompGraphBuilder::TryBuild(int64_t user_node, const NodeScoreFn* score,
                                  Rng* rng,
                                  const std::vector<ExcludedPair>& excluded,
                                  const ExecContext& ctx,
                                  UserCompGraph* out) const {
  KUC_TRACE_SPAN("compgraph.build");
  const Ckg& ckg = *ckg_;
  KUC_CHECK_GE(user_node, 0);
  KUC_CHECK_LT(user_node, ckg.num_nodes());
  const int64_t k_limit = options_.max_edges_per_node;
  const bool prune = k_limit > 0 && options_.prune != PruneMode::kNone;
  const bool by_ppr = prune && options_.prune == PruneMode::kPpr;
  if (by_ppr) {
    KUC_CHECK(score != nullptr) << "PPR pruning requires a score function";
  }
  if (prune && options_.prune == PruneMode::kRandom) {
    KUC_CHECK(rng != nullptr) << "random pruning requires an rng";
  }

  BuildScratch& scratch = BuildScratch::ForThisThread();
  scratch.Begin(ckg.num_nodes());
  std::vector<uint64_t>& excluded_keys = scratch.excluded;
  excluded_keys.clear();
  for (const auto& pair : excluded) {
    excluded_keys.push_back(PackPair(pair.user_node, pair.item_node));
    excluded_keys.push_back(PackPair(pair.item_node, pair.user_node));
  }
  std::sort(excluded_keys.begin(), excluded_keys.end());
  const int64_t interact = Ckg::kInteractRelation;
  const int64_t interact_inv = ckg.InverseRelation(interact);
  auto is_excluded = [&](int64_t src, int64_t rel, int64_t dst) {
    if (excluded_keys.empty()) return false;
    if (rel != interact && rel != interact_inv) return false;
    return std::binary_search(excluded_keys.begin(), excluded_keys.end(),
                              PackPair(src, dst));
  };

  UserCompGraph& graph = *out;
  graph = UserCompGraph();
  graph.user_node = user_node;
  graph.layers.resize(options_.depth);

  const int64_t self_rel = ckg.self_loop_relation();
  std::vector<Candidate>& candidates = scratch.candidates;
  const std::vector<int64_t> first_heads = {user_node};

  for (int32_t l = 0; l < options_.depth; ++l) {
    CompLayer& layer = graph.layers[l];
    const std::vector<int64_t>& heads =
        l == 0 ? first_heads : graph.layers[l - 1].nodes;

    for (size_t si = 0; si < heads.size(); ++si) {
      // One cancellation checkpoint per expanded head node: layers grow
      // multiplicatively, so this bounds the work wasted past a deadline to
      // a single node's out-edge scan.
      const Status status = ctx.Check("subgraph");
      if (!status.ok()) {
        scratch.EndLayer(layer);
        scratch.in_use = false;
        graph = UserCompGraph();
        return status;
      }
      const int64_t src = heads[si];
      if (options_.self_loops) {
        layer.src_index.push_back(static_cast<int64_t>(si));
        layer.rel.push_back(self_rel);
        layer.dst_index.push_back(scratch.IndexOf(src, &layer));
      }
      const auto rels = ckg.OutRelations(src);
      const auto dsts = ckg.OutNeighbors(src);
      candidates.clear();
      for (size_t e = 0; e < dsts.size(); ++e) {
        if (is_excluded(src, rels[e], dsts[e])) continue;
        const real_t s = by_ppr ? (*score)(dsts[e]) : 0.0;
        candidates.push_back({rels[e], dsts[e], s});
      }
      const std::vector<Candidate>* keep = &candidates;
      if (prune && static_cast<int64_t>(candidates.size()) > k_limit) {
        if (by_ppr) {
          // Top-K by tail score; deterministic tie-break on (dst, rel).
          std::nth_element(candidates.begin(), candidates.begin() + k_limit,
                           candidates.end(),
                           [](const Candidate& a, const Candidate& b) {
                             if (a.score != b.score) return a.score > b.score;
                             if (a.dst != b.dst) return a.dst < b.dst;
                             return a.rel < b.rel;
                           });
          candidates.resize(k_limit);
        } else {  // kRandom
          scratch.kept.clear();
          for (const int64_t idx : rng->SampleWithoutReplacement(
                   static_cast<int64_t>(candidates.size()), k_limit)) {
            scratch.kept.push_back(candidates[idx]);
          }
          keep = &scratch.kept;
        }
      }
      for (const Candidate& c : *keep) {
        layer.src_index.push_back(static_cast<int64_t>(si));
        layer.rel.push_back(c.rel);
        layer.dst_index.push_back(scratch.IndexOf(c.dst, &layer));
      }
    }
    scratch.EndLayer(layer);
  }
  scratch.in_use = false;

  const std::vector<int64_t>& final_nodes = graph.layers.back().nodes;
  graph.final_index.reserve(final_nodes.size());
  for (size_t i = 0; i < final_nodes.size(); ++i) {
    graph.final_index.emplace(final_nodes[i], static_cast<int64_t>(i));
  }
  return Status::Ok();
}

}  // namespace kucnet
