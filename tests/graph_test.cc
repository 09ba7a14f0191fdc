#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "graph/ckg.h"
#include "graph/compgraph.h"
#include "graph/subgraph.h"
#include "util/rng.h"

namespace kucnet {
namespace {

// Toy graph modeled on the paper's Figure 1: two users, five items (items 3
// and 4 are "new": no interactions), three KG entities.
//   users: u0, u1
//   items (kg ids 0-4): SherlockHolmes(0), IronMan(1), Titanic(2),
//                        SherlockHolmes2(3, new), Avengers(4, new)
//   entities (kg ids 5-7): RDJ(5), SciFi(6), GuyRitchie(7)
Ckg ToyCkg() {
  std::vector<std::array<int64_t, 2>> interactions = {
      {0, 0}, {0, 1}, {1, 0}, {1, 2}};
  std::vector<std::array<int64_t, 3>> kg = {
      {0, 0, 7},  // SherlockHolmes directed_by GuyRitchie
      {3, 0, 7},  // SherlockHolmes2 directed_by GuyRitchie
      {1, 1, 6},  // IronMan genre SciFi
      {4, 1, 6},  // Avengers genre SciFi
      {1, 0, 5},  // IronMan directed_by(ish) RDJ -- extra connectivity
      {4, 0, 5},  // Avengers ... RDJ
  };
  Ckg g;
  EXPECT_TRUE(Ckg::TryBuild(/*num_users=*/2, /*num_items=*/5,
                            /*num_kg_nodes=*/8, /*num_kg_relations=*/2,
                            interactions, kg, {}, &g)
                  .ok());
  return g;
}

// A reproducible random CKG for property tests.
Ckg RandomCkg(uint64_t seed, int64_t users = 6, int64_t items = 10,
              int64_t extra_entities = 6, int64_t rels = 3,
              int64_t num_inter = 18, int64_t num_kg = 25) {
  Rng rng(seed);
  std::vector<std::array<int64_t, 2>> inter;
  for (int64_t k = 0; k < num_inter; ++k) {
    inter.push_back({rng.UniformInt(users), rng.UniformInt(items)});
  }
  std::vector<std::array<int64_t, 3>> kg;
  const int64_t kg_nodes = items + extra_entities;
  for (int64_t k = 0; k < num_kg; ++k) {
    kg.push_back(
        {rng.UniformInt(kg_nodes), rng.UniformInt(rels), rng.UniformInt(kg_nodes)});
  }
  Ckg g;
  EXPECT_TRUE(
      Ckg::TryBuild(users, items, kg_nodes, rels, inter, kg, {}, &g).ok());
  return g;
}

TEST(CkgTest, SizesAndIdLayout) {
  Ckg g = ToyCkg();
  EXPECT_EQ(g.num_users(), 2);
  EXPECT_EQ(g.num_items(), 5);
  EXPECT_EQ(g.num_kg_nodes(), 8);
  EXPECT_EQ(g.num_nodes(), 10);
  EXPECT_EQ(g.num_kg_relations(), 2);
  EXPECT_EQ(g.num_base_relations(), 3);
  EXPECT_EQ(g.num_relations(), 6);
  EXPECT_EQ(g.self_loop_relation(), 6);
  EXPECT_TRUE(g.IsUser(0));
  EXPECT_TRUE(g.IsUser(1));
  EXPECT_FALSE(g.IsUser(2));
  EXPECT_TRUE(g.IsItem(g.ItemNode(0)));
  EXPECT_TRUE(g.IsItem(g.ItemNode(4)));
  EXPECT_FALSE(g.IsItem(g.KgNode(5)));
  EXPECT_EQ(g.ItemOfNode(g.ItemNode(3)), 3);
}

TEST(CkgTest, InverseRelationIsInvolution) {
  Ckg g = ToyCkg();
  for (int64_t r = 0; r < g.num_relations(); ++r) {
    EXPECT_EQ(g.InverseRelation(g.InverseRelation(r)), r);
    EXPECT_NE(g.InverseRelation(r), r);
  }
}

TEST(CkgTest, EveryEdgeHasInverse) {
  Ckg g = RandomCkg(7);
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    const auto rels = g.OutRelations(v);
    const auto dsts = g.OutNeighbors(v);
    for (size_t k = 0; k < dsts.size(); ++k) {
      // Find (dst, inv(rel), v).
      const auto back_rels = g.OutRelations(dsts[k]);
      const auto back_dsts = g.OutNeighbors(dsts[k]);
      bool found = false;
      for (size_t j = 0; j < back_dsts.size(); ++j) {
        if (back_dsts[j] == v && back_rels[j] == g.InverseRelation(rels[k])) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "edge " << v << " -" << rels[k] << "-> "
                         << dsts[k];
    }
  }
}

TEST(CkgTest, ItemsOfUser) {
  Ckg g = ToyCkg();
  auto items0 = g.ItemsOfUser(0);
  std::sort(items0.begin(), items0.end());
  EXPECT_EQ(items0, (std::vector<int64_t>{0, 1}));
  auto items1 = g.ItemsOfUser(1);
  std::sort(items1.begin(), items1.end());
  EXPECT_EQ(items1, (std::vector<int64_t>{0, 2}));
}

TEST(CkgTest, OutDegreeCountsBothDirections) {
  Ckg g = ToyCkg();
  // Item 0 (SherlockHolmes): inverse-interact edges from u0, u1 plus KG edge
  // to GuyRitchie = 3 out-edges.
  EXPECT_EQ(g.OutDegree(g.ItemNode(0)), 3);
  // GuyRitchie: inverse edges from items 0 and 3.
  EXPECT_EQ(g.OutDegree(g.KgNode(7)), 2);
}

TEST(CkgTest, AdjacencyIsSymmetricAndBinary) {
  // Every stored edge (v, r, w) has its inverse (w, -r, v) stored too, and
  // no labeled edge is stored twice.
  Ckg g = RandomCkg(11);
  std::set<std::array<int64_t, 3>> edges;
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    const auto rels = g.OutRelations(v);
    const auto dsts = g.OutNeighbors(v);
    ASSERT_EQ(rels.size(), dsts.size());
    for (size_t k = 0; k < dsts.size(); ++k) {
      EXPECT_TRUE(edges.insert({v, rels[k], dsts[k]}).second)
          << "duplicate edge " << v << " -" << rels[k] << "-> " << dsts[k];
    }
  }
  EXPECT_EQ(static_cast<int64_t>(edges.size()), g.num_edges());
  for (const auto& [v, rel, w] : edges) {
    EXPECT_EQ(edges.count({w, g.InverseRelation(rel), v}), 1u)
        << "edge " << v << " -" << rel << "-> " << w << " has no inverse";
  }
}

TEST(CkgTest, DuplicateInputEdgesCollapse) {
  std::vector<std::array<int64_t, 2>> inter = {{0, 0}, {0, 0}, {0, 0}};
  Ckg g;
  ASSERT_TRUE(Ckg::TryBuild(1, 1, 1, 0, inter, {}, {}, &g).ok());
  EXPECT_EQ(g.num_edges(), 2);  // forward + inverse
}

TEST(BfsTest, DistancesOnToyGraph) {
  Ckg g = ToyCkg();
  const auto d = BfsDistances(g, g.UserNode(0), 10);
  EXPECT_EQ(d[g.UserNode(0)], 0);
  EXPECT_EQ(d[g.ItemNode(0)], 1);
  EXPECT_EQ(d[g.ItemNode(1)], 1);
  EXPECT_EQ(d[g.UserNode(1)], 2);   // via shared item 0
  EXPECT_EQ(d[g.ItemNode(2)], 3);   // u0 - i0 - u1 - i2
  EXPECT_EQ(d[g.KgNode(7)], 2);     // via item 0
  EXPECT_EQ(d[g.ItemNode(3)], 3);   // new item via GuyRitchie
  EXPECT_EQ(d[g.KgNode(6)], 2);     // via item 1
  EXPECT_EQ(d[g.ItemNode(4)], 3);   // new item via SciFi (or RDJ)
}

TEST(BfsTest, MaxDepthTruncates) {
  Ckg g = ToyCkg();
  const auto d = BfsDistances(g, g.UserNode(0), 2);
  EXPECT_EQ(d[g.UserNode(1)], 2);
  EXPECT_EQ(d[g.ItemNode(3)], -1);  // distance 3 > max_depth
}

TEST(UiSubgraphTest, CapturesCollaborativeAndAttributePaths) {
  Ckg g = ToyCkg();
  // Pair (u0, Avengers): new item connected through SciFi / RDJ (Fig. 2 right).
  UiSubgraph sg = ExtractUiSubgraph(g, g.UserNode(0), g.ItemNode(4), 3);
  std::set<int64_t> nodes(sg.nodes.begin(), sg.nodes.end());
  EXPECT_TRUE(nodes.count(g.UserNode(0)));
  EXPECT_TRUE(nodes.count(g.ItemNode(4)));
  EXPECT_TRUE(nodes.count(g.ItemNode(1)));  // IronMan bridges
  EXPECT_TRUE(nodes.count(g.KgNode(6)));    // SciFi
  EXPECT_TRUE(nodes.count(g.KgNode(5)));    // RDJ
  // Titanic (item 2) is distance 3 from u0 and >= 1 from Avengers: excluded.
  EXPECT_FALSE(nodes.count(g.ItemNode(2)));
  // All edges have both endpoints inside the node set.
  for (const Edge& e : sg.edges) {
    EXPECT_TRUE(nodes.count(e.src));
    EXPECT_TRUE(nodes.count(e.dst));
  }
}

TEST(UiSubgraphTest, DefinitionTwoMembership) {
  // Property: node v is in G_{u,i|L} iff d(u,v) + d(v,i) <= L.
  Ckg g = RandomCkg(13);
  const int32_t depth = 3;
  const int64_t u = g.UserNode(1);
  const int64_t i = g.ItemNode(2);
  UiSubgraph sg = ExtractUiSubgraph(g, u, i, depth);
  const auto du = BfsDistances(g, u, g.num_nodes());
  const auto di = BfsDistances(g, i, g.num_nodes());
  std::set<int64_t> nodes(sg.nodes.begin(), sg.nodes.end());
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    const bool expected =
        du[v] >= 0 && di[v] >= 0 && du[v] + di[v] <= depth;
    EXPECT_EQ(nodes.count(v) > 0, expected) << "node " << v;
  }
}

TEST(CompGraphTest, LayersMatchRecursiveDefinition) {
  // Without pruning or self-loops, layer nodes must equal Eq. (10).
  Ckg g = ToyCkg();
  CompGraphOptions opts;
  opts.depth = 3;
  opts.self_loops = false;
  opts.max_edges_per_node = 0;
  CompGraphBuilder builder(&g, opts);
  UserCompGraph cg;
  ASSERT_TRUE(builder.TryBuild(g.UserNode(0), nullptr, nullptr, {},
                               ExecContext(), &cg).ok());

  std::set<int64_t> frontier = {g.UserNode(0)};
  for (int32_t l = 0; l < 3; ++l) {
    std::set<int64_t> next;
    int64_t expected_edges = 0;
    for (const int64_t v : frontier) {
      for (const int64_t w : g.OutNeighbors(v)) next.insert(w);
      expected_edges += g.OutDegree(v);
    }
    std::set<int64_t> got(cg.layers[l].nodes.begin(),
                          cg.layers[l].nodes.end());
    EXPECT_EQ(got, next) << "layer " << l + 1;
    EXPECT_EQ(cg.layers[l].num_edges(), expected_edges) << "layer " << l + 1;
    frontier = next;
  }
}

TEST(CompGraphTest, SelfLoopsKeepNodesAlive) {
  Ckg g = ToyCkg();
  CompGraphOptions opts;
  opts.depth = 3;
  opts.self_loops = true;
  CompGraphBuilder builder(&g, opts);
  UserCompGraph cg;
  ASSERT_TRUE(builder.TryBuild(g.UserNode(0), nullptr, nullptr, {},
                               ExecContext(), &cg).ok());
  // Layer l nodes are a superset of layer l-1 nodes.
  std::set<int64_t> prev = {g.UserNode(0)};
  for (const auto& layer : cg.layers) {
    std::set<int64_t> cur(layer.nodes.begin(), layer.nodes.end());
    for (const int64_t v : prev) EXPECT_TRUE(cur.count(v));
    prev = cur;
  }
  // The user itself stays reachable at the final layer.
  EXPECT_GE(cg.FinalIndexOf(g.UserNode(0)), 0);
}

TEST(CompGraphTest, Proposition1UiGraphsAreSubgraphs) {
  // Proposition 1: for every item i, every edge of C_{u,i|L} appears in the
  // (unpruned) user-centric computation graph at the same layer.
  for (uint64_t seed : {3u, 4u, 5u}) {
    Ckg g = RandomCkg(seed);
    CompGraphOptions opts;
    opts.depth = 3;
    opts.self_loops = true;
    CompGraphBuilder builder(&g, opts);
    const int64_t u = g.UserNode(0);
    UserCompGraph cg;
    ASSERT_TRUE(builder.TryBuild(u, nullptr, nullptr, {},
                                 ExecContext(), &cg).ok());

    // Materialize per-layer edge sets of the user-centric graph.
    std::vector<std::set<std::tuple<int64_t, int64_t, int64_t>>> uc(3);
    std::vector<int64_t> prev_nodes = {u};
    for (int l = 0; l < 3; ++l) {
      const auto& layer = cg.layers[l];
      for (int64_t e = 0; e < layer.num_edges(); ++e) {
        uc[l].insert({prev_nodes[layer.src_index[e]], layer.rel[e],
                      layer.nodes[layer.dst_index[e]]});
      }
      prev_nodes = layer.nodes;
    }

    for (int64_t item = 0; item < g.num_items(); ++item) {
      LayeredEdges ui =
          ExtractUiComputationGraph(g, u, g.ItemNode(item), 3);
      for (int l = 0; l < 3; ++l) {
        for (const Edge& e : ui.layers[l]) {
          EXPECT_TRUE(uc[l].count({e.src, e.rel, e.dst}))
              << "seed " << seed << " item " << item << " layer " << l
              << ": edge " << e.src << " -" << e.rel << "-> " << e.dst;
        }
      }
    }
  }
}

TEST(CompGraphTest, PruningRespectsCap) {
  Ckg g = RandomCkg(21, /*users=*/4, /*items=*/20, /*extra=*/10, /*rels=*/3,
                    /*inter=*/60, /*kg=*/80);
  CompGraphOptions opts;
  opts.depth = 3;
  opts.self_loops = false;
  opts.max_edges_per_node = 2;
  opts.prune = PruneMode::kRandom;
  CompGraphBuilder builder(&g, opts);
  Rng rng(1);
  UserCompGraph cg;
  ASSERT_TRUE(builder.TryBuild(g.UserNode(0), nullptr, &rng, {},
                               ExecContext(), &cg).ok());
  for (const auto& layer : cg.layers) {
    // Each head contributes at most K edges.
    std::unordered_map<int64_t, int64_t> per_head;
    for (const int64_t s : layer.src_index) ++per_head[s];
    for (const auto& [head, count] : per_head) {
      EXPECT_LE(count, 2) << "head index " << head;
    }
  }
}

TEST(CompGraphTest, PprPruningKeepsHighestScoredTails) {
  Ckg g = ToyCkg();
  CompGraphOptions opts;
  opts.depth = 1;
  opts.self_loops = false;
  opts.max_edges_per_node = 1;
  opts.prune = PruneMode::kPpr;
  CompGraphBuilder builder(&g, opts);
  // Score item 1's node highest.
  NodeScoreFn score = [&](int64_t node) {
    return node == g.ItemNode(1) ? 1.0 : 0.0;
  };
  UserCompGraph cg;
  ASSERT_TRUE(builder.TryBuild(g.UserNode(0), &score, nullptr, {},
                               ExecContext(), &cg).ok());
  ASSERT_EQ(cg.layers[0].num_edges(), 1);
  EXPECT_EQ(cg.layers[0].nodes[cg.layers[0].dst_index[0]], g.ItemNode(1));
}

TEST(CompGraphTest, ExcludedPairsAreHidden) {
  Ckg g = ToyCkg();
  CompGraphOptions opts;
  opts.depth = 2;
  opts.self_loops = false;
  CompGraphBuilder builder(&g, opts);
  std::vector<ExcludedPair> excluded = {{g.UserNode(0), g.ItemNode(0)}};
  UserCompGraph cg;
  ASSERT_TRUE(builder.TryBuild(g.UserNode(0), nullptr, nullptr, excluded,
                               ExecContext(), &cg).ok());
  // Layer 1 must not contain item 0 (only edge to it was excluded).
  for (const int64_t n : cg.layers[0].nodes) {
    EXPECT_NE(n, g.ItemNode(0));
  }
  // And the inverse edge (i0 -> u0) is hidden in deeper layers: no edge in
  // layer 2 may have src item0... item0 is unreachable entirely here, so just
  // check overall absence of the excluded edge.
  std::vector<int64_t> prev_nodes = {g.UserNode(0)};
  for (const auto& layer : cg.layers) {
    for (int64_t e = 0; e < layer.num_edges(); ++e) {
      const int64_t src = prev_nodes[layer.src_index[e]];
      const int64_t dst = layer.nodes[layer.dst_index[e]];
      const bool is_excluded_edge =
          (src == g.UserNode(0) && dst == g.ItemNode(0)) ||
          (src == g.ItemNode(0) && dst == g.UserNode(0));
      EXPECT_FALSE(is_excluded_edge && (layer.rel[e] == 0 || layer.rel[e] == 3));
    }
    prev_nodes = layer.nodes;
  }
}

TEST(CompGraphTest, FinalIndexLookup) {
  Ckg g = ToyCkg();
  CompGraphOptions opts;
  opts.depth = 3;
  CompGraphBuilder builder(&g, opts);
  UserCompGraph cg;
  ASSERT_TRUE(builder.TryBuild(g.UserNode(0), nullptr, nullptr, {},
                               ExecContext(), &cg).ok());
  // Item 4 (new) is reachable at depth 3 via KG bridge.
  EXPECT_GE(cg.FinalIndexOf(g.ItemNode(4)), 0);
  // A made-up node id is not present.
  EXPECT_EQ(cg.FinalIndexOf(9999), -1);
  EXPECT_EQ(cg.FinalSize(), static_cast<int64_t>(cg.layers.back().nodes.size()));
  EXPECT_GT(cg.TotalEdges(), 0);
}

TEST(CompGraphTest, RandomPruneDeterministicGivenSeed) {
  Ckg g = RandomCkg(31, 4, 20, 10, 3, 60, 80);
  CompGraphOptions opts;
  opts.depth = 2;
  opts.max_edges_per_node = 3;
  opts.prune = PruneMode::kRandom;
  CompGraphBuilder builder(&g, opts);
  Rng rng1(9), rng2(9);
  UserCompGraph a;
  ASSERT_TRUE(builder.TryBuild(g.UserNode(1), nullptr, &rng1, {},
                               ExecContext(), &a).ok());
  UserCompGraph b;
  ASSERT_TRUE(builder.TryBuild(g.UserNode(1), nullptr, &rng2, {},
                               ExecContext(), &b).ok());
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_EQ(a.layers[l].nodes, b.layers[l].nodes);
    EXPECT_EQ(a.layers[l].rel, b.layers[l].rel);
    EXPECT_EQ(a.layers[l].src_index, b.layers[l].src_index);
  }
}

}  // namespace
}  // namespace kucnet
