// Property tests over the user-centric computation graph builder: for a
// sweep of (seed, depth, K, prune mode) configurations, every structural
// invariant the message-passing kernel relies on must hold.

#include <map>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/compgraph.h"
#include "ppr/ppr.h"

namespace kucnet {
namespace {

struct Config {
  uint64_t seed;
  int32_t depth;
  int64_t k;
  PruneMode prune;
};

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  const char* mode = info.param.prune == PruneMode::kNone     ? "none"
                     : info.param.prune == PruneMode::kPpr    ? "ppr"
                                                              : "random";
  return "seed" + std::to_string(info.param.seed) + "_L" +
         std::to_string(info.param.depth) + "_K" +
         std::to_string(info.param.k) + "_" + mode;
}

class CompGraphPropertyTest : public ::testing::TestWithParam<Config> {
 protected:
  static Ckg MakeCkg(uint64_t seed) {
    SyntheticConfig cfg;
    cfg.seed = seed;
    cfg.num_users = 25;
    cfg.num_items = 40;
    cfg.num_topics = 4;
    cfg.interactions_per_user = 6;
    cfg.entities_per_topic = 4;
    cfg.num_shared_entities = 6;
    Rng rng(seed);
    return TraditionalSplit(GenerateSynthetic(cfg).raw, 0.2, rng).BuildCkg();
  }
};

TEST_P(CompGraphPropertyTest, StructuralInvariants) {
  const Config& param = GetParam();
  const Ckg ckg = MakeCkg(param.seed);
  const PprTable ppr = PprTable::Compute(ckg);

  CompGraphOptions opts;
  opts.depth = param.depth;
  opts.max_edges_per_node = param.k;
  opts.prune = param.prune;
  opts.self_loops = true;
  CompGraphBuilder builder(&ckg, opts);

  for (int64_t user = 0; user < 5; ++user) {
    const NodeScoreFn score = ppr.ScoreFn(user);
    Rng rng(param.seed * 31 + user);
    UserCompGraph graph;
    const Status built = builder.TryBuild(
        ckg.UserNode(user), param.prune == PruneMode::kPpr ? &score : nullptr,
        param.prune == PruneMode::kRandom ? &rng : nullptr, {}, ExecContext(),
        &graph);
    ASSERT_TRUE(built.ok()) << built.message();

    ASSERT_EQ(static_cast<int32_t>(graph.layers.size()), param.depth);
    int64_t prev_size = 1;
    for (int32_t l = 0; l < param.depth; ++l) {
      const CompLayer& layer = graph.layers[l];
      const int64_t cur_size = static_cast<int64_t>(layer.nodes.size());
      ASSERT_EQ(layer.src_index.size(), layer.rel.size());
      ASSERT_EQ(layer.src_index.size(), layer.dst_index.size());
      // Index ranges.
      for (int64_t e = 0; e < layer.num_edges(); ++e) {
        EXPECT_GE(layer.src_index[e], 0);
        EXPECT_LT(layer.src_index[e], prev_size);
        EXPECT_GE(layer.dst_index[e], 0);
        EXPECT_LT(layer.dst_index[e], cur_size);
        EXPECT_GE(layer.rel[e], 0);
        EXPECT_LE(layer.rel[e], ckg.self_loop_relation());
      }
      // Node ids valid and unique.
      std::set<int64_t> unique_nodes(layer.nodes.begin(), layer.nodes.end());
      EXPECT_EQ(static_cast<int64_t>(unique_nodes.size()), cur_size);
      for (const int64_t n : layer.nodes) {
        EXPECT_GE(n, 0);
        EXPECT_LT(n, ckg.num_nodes());
      }
      // Every node in this layer is the destination of at least one edge.
      std::set<int64_t> with_in_edge(layer.dst_index.begin(),
                                     layer.dst_index.end());
      EXPECT_EQ(static_cast<int64_t>(with_in_edge.size()), cur_size);
      // Per-head cap (self-loops exempt).
      if (param.k > 0 && param.prune != PruneMode::kNone) {
        std::map<int64_t, int64_t> per_head;
        for (int64_t e = 0; e < layer.num_edges(); ++e) {
          if (layer.rel[e] == ckg.self_loop_relation()) continue;
          ++per_head[layer.src_index[e]];
        }
        for (const auto& [head, count] : per_head) {
          EXPECT_LE(count, param.k);
        }
      }
      prev_size = cur_size;
    }
    // final_index is a bijection onto the last layer.
    EXPECT_EQ(static_cast<int64_t>(graph.final_index.size()),
              graph.FinalSize());
    for (const auto& [node, idx] : graph.final_index) {
      EXPECT_EQ(graph.layers.back().nodes[idx], node);
    }
  }
}

TEST_P(CompGraphPropertyTest, PrunedIsSubgraphOfUnpruned) {
  const Config& param = GetParam();
  if (param.prune == PruneMode::kNone || param.k == 0) GTEST_SKIP();
  const Ckg ckg = MakeCkg(param.seed);
  const PprTable ppr = PprTable::Compute(ckg);

  CompGraphOptions unpruned_opts;
  unpruned_opts.depth = param.depth;
  unpruned_opts.self_loops = true;
  CompGraphBuilder unpruned_builder(&ckg, unpruned_opts);

  CompGraphOptions pruned_opts = unpruned_opts;
  pruned_opts.max_edges_per_node = param.k;
  pruned_opts.prune = param.prune;
  CompGraphBuilder pruned_builder(&ckg, pruned_opts);

  const int64_t user = ckg.UserNode(0);
  const NodeScoreFn score = ppr.ScoreFn(0);
  Rng rng(param.seed);
  UserCompGraph full;
  ASSERT_TRUE(unpruned_builder.TryBuild(user, nullptr, nullptr, {},
                                        ExecContext(), &full).ok());
  UserCompGraph pruned;
  const Status built = pruned_builder.TryBuild(
      user, param.prune == PruneMode::kPpr ? &score : nullptr,
      param.prune == PruneMode::kRandom ? &rng : nullptr, {}, ExecContext(),
      &pruned);
  ASSERT_TRUE(built.ok()) << built.message();

  EXPECT_LE(pruned.TotalEdges(), full.TotalEdges());
  // Every pruned-graph edge (in global-id form) exists in the full graph at
  // the same layer. Note: because pruning shrinks earlier layers, a node
  // may sit at a *later* dense layer in the pruned graph only if self-loops
  // carried it, which still exists in the full graph thanks to its own
  // self-loops — so the per-layer check is exact.
  std::vector<int64_t> full_prev = {user};
  std::vector<std::set<std::tuple<int64_t, int64_t, int64_t>>> full_edges(
      param.depth);
  for (int32_t l = 0; l < param.depth; ++l) {
    const CompLayer& layer = full.layers[l];
    for (int64_t e = 0; e < layer.num_edges(); ++e) {
      full_edges[l].insert({full_prev[layer.src_index[e]], layer.rel[e],
                            layer.nodes[layer.dst_index[e]]});
    }
    full_prev = layer.nodes;
  }
  std::vector<int64_t> pruned_prev = {user};
  for (int32_t l = 0; l < param.depth; ++l) {
    const CompLayer& layer = pruned.layers[l];
    for (int64_t e = 0; e < layer.num_edges(); ++e) {
      const auto edge = std::make_tuple(pruned_prev[layer.src_index[e]],
                                        layer.rel[e],
                                        layer.nodes[layer.dst_index[e]]);
      EXPECT_TRUE(full_edges[l].count(edge))
          << "layer " << l << " edge " << std::get<0>(edge) << " -"
          << std::get<1>(edge) << "-> " << std::get<2>(edge);
    }
    pruned_prev = layer.nodes;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompGraphPropertyTest,
    ::testing::Values(Config{1, 2, 0, PruneMode::kNone},
                      Config{1, 3, 5, PruneMode::kPpr},
                      Config{1, 3, 5, PruneMode::kRandom},
                      Config{2, 3, 2, PruneMode::kPpr},
                      Config{2, 4, 10, PruneMode::kPpr},
                      Config{3, 2, 3, PruneMode::kRandom},
                      Config{3, 5, 4, PruneMode::kPpr},
                      Config{4, 3, 0, PruneMode::kNone}),
    ConfigName);

}  // namespace
}  // namespace kucnet
