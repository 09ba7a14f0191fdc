#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/ckg.h"
#include "graph/dynamic_ckg.h"
#include "ppr/ppr.h"
#include "testing/fuzz.h"
#include "testing/oracle.h"
#include "util/finite.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kucnet {
namespace {

// Connected random CKG with a single KG relation.
Ckg SimpleRandomCkg(uint64_t seed, int64_t users = 5, int64_t items = 12,
                    int64_t extra = 6) {
  Rng rng(seed);
  std::vector<std::array<int64_t, 2>> inter;
  // A spanning chain of interactions keeps the graph connected.
  for (int64_t u = 0; u < users; ++u) {
    inter.push_back({u, u % items});
    inter.push_back({u, (u + 1) % items});
  }
  for (int k = 0; k < 10; ++k) {
    inter.push_back({rng.UniformInt(users), rng.UniformInt(items)});
  }
  std::vector<std::array<int64_t, 3>> kg;
  const int64_t kg_nodes = items + extra;
  for (int64_t v = items; v < kg_nodes; ++v) {
    kg.push_back({rng.UniformInt(items), 0, v});  // each entity linked
  }
  for (int k = 0; k < 10; ++k) {
    const int64_t h = rng.UniformInt(kg_nodes);
    int64_t t = rng.UniformInt(kg_nodes);
    if (t == h) t = (t + 1) % kg_nodes;
    kg.push_back({h, 0, t});
  }
  // Single relation id 0 throughout: (h, 0, t) duplicates collapse.
  Ckg g;
  EXPECT_TRUE(Ckg::TryBuild(users, items, kg_nodes, 1, inter, kg, {}, &g).ok());
  return g;
}

// The power-iteration tests run on testing::OraclePprDense, the dense
// iteration of Eq. 13: after k rounds its estimate holds all but
// (1 - alpha)^k of the restart mass, so 200 rounds at alpha = 0.15 leave
// under 1e-14 in flight.

TEST(PprTest, PowerIterationIsAProbabilityVector) {
  Ckg g = SimpleRandomCkg(1);
  const auto r = testing::OraclePprDense(g, g.UserNode(0), 0.15, 200).estimate;
  real_t total = std::accumulate(r.begin(), r.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (const real_t x : r) EXPECT_GE(x, 0.0);
}

TEST(PprTest, RestartMassConcentratesAtSource) {
  Ckg g = SimpleRandomCkg(2);
  const int64_t src = g.UserNode(1);
  const auto r = testing::OraclePprDense(g, src, 0.15, 200).estimate;
  // The source must hold at least the restart probability.
  EXPECT_GE(r[src], 0.15);
  // And be the argmax in this small graph.
  EXPECT_EQ(std::max_element(r.begin(), r.end()) - r.begin(), src);
}

TEST(PprTest, HigherAlphaMeansMoreMassAtSource) {
  Ckg g = SimpleRandomCkg(3);
  const int64_t src = g.UserNode(0);
  const auto r_low = testing::OraclePprDense(g, src, 0.1, 200).estimate;
  const auto r_high = testing::OraclePprDense(g, src, 0.5, 200).estimate;
  EXPECT_GT(r_high[src], r_low[src]);
}

TEST(PprTest, ForwardPushApproximatesPowerIteration) {
  Ckg g = SimpleRandomCkg(4);
  const int64_t src = g.UserNode(2);
  const auto exact = testing::OraclePprDense(g, src, 0.15, 200).estimate;
  const auto push = PprForwardPush(g, src, 0.15, 1e-9);
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    const auto it = push.find(v);
    const real_t approx = it == push.end() ? 0.0 : it->second;
    EXPECT_NEAR(approx, exact[v], 1e-4) << "node " << v;
  }
}

TEST(PprTest, PushUndershootBound) {
  // Push estimates never exceed the exact PPR (residuals are nonnegative).
  Ckg g = SimpleRandomCkg(5);
  const int64_t src = g.UserNode(0);
  const auto exact = testing::OraclePprDense(g, src, 0.15, 300).estimate;
  const auto push = PprForwardPush(g, src, 0.15, 1e-4);
  for (const auto& [node, value] : push) {
    EXPECT_LE(value, exact[node] + 1e-9) << "node " << node;
    EXPECT_GE(value, 0.0);
  }
}

TEST(PprTest, PushMassAtMostOne) {
  Ckg g = SimpleRandomCkg(6);
  const auto push = PprForwardPush(g, g.UserNode(1), 0.15, 1e-8);
  real_t total = 0.0;
  for (const auto& [node, value] : push) total += value;
  EXPECT_LE(total, 1.0 + 1e-9);
  EXPECT_GT(total, 0.9);  // epsilon small enough to capture most mass
}

TEST(PprTableTest, SerialMatchesParallel) {
  Ckg g = SimpleRandomCkg(7);
  PprTableOptions opts;
  opts.epsilon = 1e-7;
  PprTable serial = PprTable::Compute(g, opts, nullptr);
  ThreadPool pool(4);
  PprTable parallel = PprTable::Compute(g, opts, &pool);
  ASSERT_EQ(serial.num_users(), parallel.num_users());
  // Each user's push runs alone on one thread, so the pool changes nothing:
  // the vectors are equal bit for bit.
  for (int64_t u = 0; u < serial.num_users(); ++u) {
    EXPECT_EQ(serial.Vector(u), parallel.Vector(u)) << "user " << u;
  }
  EXPECT_GE(serial.compute_seconds(), 0.0);
}

TEST(PprTableTest, ScoreFnMatchesScore) {
  Ckg g = SimpleRandomCkg(8);
  PprTable table = PprTable::Compute(g);
  auto fn = table.ScoreFn(0);
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(fn(v), table.Score(0, v));
  }
  // Unranked nodes score 0 (node id outside any vector entry).
  EXPECT_EQ(table.Score(0, g.num_nodes() - 1),
            table.ScoreFn(0)(g.num_nodes() - 1));
}

TEST(PprTableTest, UsersNeighborhoodRanksAboveFarNodes) {
  // The user's own interacted items should outrank a node three hops away.
  Ckg g = SimpleRandomCkg(9);
  PprTable table = PprTable::Compute(g);
  const auto items = g.ItemsOfUser(0);
  ASSERT_FALSE(items.empty());
  const real_t near_score = table.Score(0, g.ItemNode(items[0]));
  EXPECT_GT(near_score, 0.0);
}

TEST(PprEdgeCaseTest, IsolatedUserKeepsMassAtSourceWithoutCrashing) {
  // User 2 never interacted: its node has no out-edges. The push walk must
  // terminate immediately with all restart mass stranded at the source, and
  // every item must score exactly zero — no crash, no division by zero.
  const std::vector<std::array<int64_t, 2>> inter = {{0, 0}, {1, 1}};
  const std::vector<std::array<int64_t, 3>> kg;
  Ckg g;
  ASSERT_TRUE(Ckg::TryBuild(3, 2, 2, 1, inter, kg, {}, &g).ok());
  const auto push = PprForwardPush(g, g.UserNode(2), 0.15, 1e-8);
  ASSERT_EQ(push.size(), 1u);
  EXPECT_NEAR(push.at(g.UserNode(2)), 1.0, 1e-9);
  PprTable table = PprTable::Compute(g);
  for (int64_t item = 0; item < 2; ++item) {
    EXPECT_EQ(table.Score(2, g.ItemNode(item)), 0.0);
  }
}

TEST(PprEdgeCaseTest, EmptyKgStillRanksInteractedItems) {
  // No KG triplets at all: the CKG degenerates to the bipartite interaction
  // graph, which must still produce positive scores for interacted items.
  const std::vector<std::array<int64_t, 2>> inter = {{0, 0}, {0, 1}, {1, 1}};
  const std::vector<std::array<int64_t, 3>> kg;
  Ckg g;
  ASSERT_TRUE(Ckg::TryBuild(2, 2, 2, 1, inter, kg, {}, &g).ok());
  PprTable table = PprTable::Compute(g);
  EXPECT_GT(table.Score(0, g.ItemNode(0)), 0.0);
  EXPECT_GT(table.Score(0, g.ItemNode(1)), 0.0);
  EXPECT_GT(table.Score(1, g.ItemNode(1)), 0.0);
}

TEST(PprEdgeCaseTest, EdgeFreeGraphScoresZeroEverywhere) {
  // Fully degenerate: no interactions and no KG. Every user is dangling;
  // Compute must not crash and items must be unranked (score 0).
  const std::vector<std::array<int64_t, 2>> inter;
  const std::vector<std::array<int64_t, 3>> kg;
  Ckg g;
  ASSERT_TRUE(Ckg::TryBuild(2, 3, 3, 1, inter, kg, {}, &g).ok());
  PprTable table = PprTable::Compute(g);
  for (int64_t user = 0; user < 2; ++user) {
    for (int64_t item = 0; item < 3; ++item) {
      EXPECT_EQ(table.Score(user, g.ItemNode(item)), 0.0);
    }
    // The stranded restart mass shows up at the user's own node.
    EXPECT_NEAR(table.Score(user, g.UserNode(user)), 1.0, 1e-9);
  }
}

TEST(PprOracleTest, PushMatchesOracleOnGraphWithDanglingNodes) {
  // Entities 12..17 exist in the KG id space but appear in no triplet, so
  // their nodes have no edges at all; user 3 is isolated too. The optimized
  // push and the naive oracle push share the same queue discipline and
  // arithmetic order, so their estimates must agree bitwise, dangling
  // absorption included.
  const std::vector<std::array<int64_t, 2>> inter = {
      {0, 0}, {0, 1}, {1, 1}, {2, 0}, {2, 2}};
  const std::vector<std::array<int64_t, 3>> kg = {
      {0, 0, 3}, {1, 0, 3}, {2, 0, 4}, {4, 0, 5}};
  Ckg g;
  ASSERT_TRUE(Ckg::TryBuild(4, 3, 18, 1, inter, kg, {}, &g).ok());
  for (int64_t source = 0; source < g.num_nodes(); ++source) {
    const auto push = PprForwardPush(g, source, 0.2, 1e-7);
    const testing::OraclePprResult oracle =
        testing::OraclePprPush(g, source, 0.2, 1e-7);
    ASSERT_EQ(push.size(), oracle.estimate.size()) << "source " << source;
    for (const auto& [node, value] : oracle.estimate) {
      const auto it = push.find(node);
      ASSERT_NE(it, push.end()) << "source " << source << " node " << node;
      EXPECT_EQ(testing::UlpDistance(it->second, value), 0u)
          << "source " << source << " node " << node;
    }
    // Termination accounting: estimate plus terminal residual is the full
    // unit of restart mass, dangling nodes or not.
    EXPECT_NEAR(oracle.total_mass, 1.0, 1e-9) << "source " << source;
  }
}

TEST(PprOracleTest, DanglingSourceAgainstDenseReference) {
  // Edges are stored in both directions, so any *reachable* node has an
  // out-edge; a dangling (edge-free) node can only ever be the source. Both
  // cases appear here: the walk from user 0 is checked against the converged
  // dense absorbing-walk reference within the push's undershoot bound, and
  // the edge-free kg node 2 stays completely unranked.
  const std::vector<std::array<int64_t, 2>> inter = {{0, 0}};
  const std::vector<std::array<int64_t, 3>> kg = {{0, 0, 1}};
  // Node layout: user 0, item node (kg id 0), entity node (kg id 1, only a
  // back-edge from the item), plus kg id 2 fully dangling.
  Ckg g;
  ASSERT_TRUE(Ckg::TryBuild(1, 1, 3, 1, inter, kg, {}, &g).ok());
  const real_t epsilon = 1e-8;
  const auto push = PprForwardPush(g, g.UserNode(0), 0.15, epsilon);
  const testing::OracleDensePpr dense =
      testing::OraclePprDense(g, g.UserNode(0), 0.15, 600);
  real_t degree_sum = 0.0, undershoot = 0.0;
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    const auto it = push.find(v);
    const real_t est = it == push.end() ? 0.0 : it->second;
    EXPECT_LE(est, dense.estimate[v] + 1e-12) << "node " << v;
    undershoot += dense.estimate[v] - est;
    degree_sum += static_cast<real_t>(g.OutDegree(v));
  }
  EXPECT_LE(undershoot, epsilon * degree_sum + 1e-8);
  // The fully dangling node is unreachable: no estimate at all.
  EXPECT_EQ(push.count(g.KgNode(2)), 0u);
}

// Estimates of a push that equal the oracle transcript's key for key and
// raw bit for raw bit.
void ExpectOracleBits(const std::unordered_map<int64_t, real_t>& got,
                      const Ckg& g, int64_t source, real_t alpha,
                      real_t epsilon) {
  const testing::OraclePprResult oracle =
      testing::OraclePprPush(g, source, alpha, epsilon);
  ASSERT_EQ(got.size(), oracle.estimate.size()) << "source " << source;
  for (const auto& [node, value] : oracle.estimate) {
    const auto it = got.find(node);
    ASSERT_NE(it, got.end()) << "source " << source << " node " << node;
    EXPECT_EQ(testing::UlpDistance(it->second, value), 0u)
        << "source " << source << " node " << node;
  }
}

TEST(PprScratchTest, ReusedAcrossGraphSizesOnOneThread) {
  // The push's dense scratch is per thread and outlives each push: after a
  // larger graph it serves a smaller one, then the larger one again. Any
  // value or flag a reset misses, or an array sized for the wrong graph,
  // shows up as an estimate that differs from the oracle.
  const Ckg large = SimpleRandomCkg(11, 9, 30, 14);
  const Ckg small = SimpleRandomCkg(12, 2, 4, 2);
  ASSERT_GT(large.num_nodes(), small.num_nodes());
  for (const Ckg* g : {&large, &small, &large}) {
    for (int64_t u = 0; u < g->num_users(); ++u) {
      const int64_t source = g->UserNode(u);
      ExpectOracleBits(PprForwardPush(*g, source, 0.15, 1e-7), *g, source,
                       0.15, 1e-7);
    }
  }
}

TEST(PprScratchTest, PooledTableTwiceInARowMatchesOracle) {
  const Ckg g = SimpleRandomCkg(13, 12, 20, 8);
  PprTableOptions opts;
  opts.epsilon = 1e-7;
  ThreadPool pool(4);
  for (int round = 0; round < 2; ++round) {
    const PprTable table = PprTable::Compute(g, opts, &pool);
    for (int64_t u = 0; u < g.num_users(); ++u) {
      ExpectOracleBits(table.Vector(u), g, g.UserNode(u), opts.alpha,
                       opts.epsilon);
    }
  }
}

// Pushes from `source` to convergence in place on a fresh dense state of
// the graph, swapped into the scratch; returns the push's counts.
template <typename Graph>
PushCounts PushFromSource(const Graph& g, int64_t source, real_t alpha,
                          real_t epsilon, DensePprState* state) {
  *state = DensePprState(g.num_nodes());
  PushScratch& scratch = PushScratch::ForThisThread();
  scratch.SwapIn(state);
  scratch.Residual(source) = 1.0;
  const PushCounts counts =
      PushToConvergence(g, alpha, epsilon, {source}, &scratch);
  scratch.SwapOut();
  return counts;
}

// The dense state's entries flagged `flag` equal the oracle map's, key for
// key and raw bit for raw bit; nodes without an entry hold 0.
void ExpectSameBits(const std::vector<real_t>& values,
                    const std::vector<uint8_t>& flags, uint8_t flag,
                    const std::unordered_map<int64_t, real_t>& want,
                    const std::string& what) {
  size_t entries = 0;
  for (size_t v = 0; v < flags.size(); ++v) {
    const auto node = static_cast<int64_t>(v);
    if ((flags[v] & flag) == 0) {
      ASSERT_EQ(values[v], 0.0) << what << " node " << node;
      continue;
    }
    ++entries;
    const auto it = want.find(node);
    ASSERT_NE(it, want.end()) << what << " node " << node;
    EXPECT_EQ(std::bit_cast<uint64_t>(values[v]),
              std::bit_cast<uint64_t>(it->second))
        << what << " node " << node;
  }
  EXPECT_EQ(entries, want.size()) << what;
}

TEST(PprScratchTest, LongPushCompactsTheFifoAndMatchesOracle) {
  // A full push from a synth-lastfm user pops ~13,500 times, so the FIFO
  // drops its popped prefix mid-push (every graph in the tests above is far
  // too small to reach that). The static graph and the dynamic one over
  // the same inputs hold the same adjacency in the same order, so each must
  // reproduce the oracle transcript, estimates and residuals, bit for bit.
  Rng split_rng(1);
  const Dataset data = TraditionalSplit(
      GenerateSynthetic(SynthLastFmConfig()).raw, 0.2, split_rng);
  const Ckg ckg = data.BuildCkg();
  const DynamicCkg dynamic(data.num_users, data.num_items, data.num_kg_nodes,
                           data.num_kg_relations, data.train, data.kg,
                           data.user_kg);
  const real_t alpha = 0.15, epsilon = 1e-6;
  for (const int64_t user : {0, 7, 151}) {
    const int64_t source = ckg.UserNode(user);
    const testing::OraclePprResult oracle =
        testing::OraclePprPush(ckg, source, alpha, epsilon);
    auto check = [&](const auto& g, const char* layout) {
      DensePprState state;
      const PushCounts counts =
          PushFromSource(g, source, alpha, epsilon, &state);
      const std::string what =
          std::string(layout) + " user " + std::to_string(user);
      // Compaction needs 4096 pops, and at least half the buffer popped.
      EXPECT_GE(counts.pops, 8192) << what;
      ExpectSameBits(state.estimate, state.flags, PushScratch::kHasEstimate,
                     oracle.estimate, what + " estimate");
      ExpectSameBits(state.residual, state.flags, PushScratch::kHasResidual,
                     oracle.residual, what + " residual");
    };
    check(ckg, "Ckg");
    check(dynamic, "DynamicCkg");
  }
}

TEST(PprDeathTest, NonFiniteEstimateAbortsUnderFiniteChecks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScopedFiniteChecks finite_checks;
  const Ckg g = SimpleRandomCkg(14);
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  // A fresh push: the NaN reaches the source's estimate.
  EXPECT_DEATH(PprForwardPush(g, g.UserNode(0), nan, 1e-6),
               "ppr.estimate: non-finite value");
  // A stored state swapped in: its entries are checked though the push
  // never pops them.
  auto push_on_stored_nan = [&] {
    DensePprState state(g.num_nodes());
    state.estimate[g.UserNode(0)] = nan;
    state.flags[g.UserNode(0)] =
        PushScratch::kHasEstimate | PushScratch::kHasResidual;
    PushScratch& scratch = PushScratch::ForThisThread();
    scratch.SwapIn(&state);
    PushToConvergence(g, 0.15, 1e-6, {}, &scratch);
  };
  EXPECT_DEATH(push_on_stored_nan(), "ppr.estimate: non-finite value");
}

TEST(PprOracleTest, MassConservationUnderFuzz) {
  // 200 random graphs with isolated users and dangling entities: every push
  // transcript must conserve mass (estimate + residual == 1) and match the
  // optimized implementation bitwise. FuzzPpr asserts both per case.
  testing::FuzzOptions options;
  options.seed = 424242;
  options.cases = 200;
  const testing::FuzzReport report = testing::FuzzPpr(options);
  EXPECT_TRUE(report.ok()) << report.first_failure;
  EXPECT_EQ(report.cases_run, 200);
}

}  // namespace
}  // namespace kucnet
