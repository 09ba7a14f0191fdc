#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/explain.h"
#include "core/kucnet.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "tensor/grad_check.h"
#include "train/trainer.h"

namespace kucnet {
namespace {

/// A tiny but learnable dataset: few topics, informative KG.
Dataset TinyDataset(SplitKind kind = SplitKind::kTraditional,
                    uint64_t seed = 42) {
  SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.num_users = 40;
  cfg.num_items = 60;
  cfg.num_topics = 4;
  cfg.interactions_per_user = 10;
  cfg.entities_per_topic = 5;
  cfg.num_shared_entities = 8;
  cfg.kg_noise = 0.05;
  cfg.entity_entity_edges_per_topic = 6;
  Rng rng(seed);
  const SyntheticData synth = GenerateSynthetic(cfg);
  const RawData& raw = synth.raw;
  switch (kind) {
    case SplitKind::kTraditional:
      return TraditionalSplit(raw, 0.25, rng);
    case SplitKind::kNewItem:
      return NewItemSplit(raw, 0.2, rng);
    case SplitKind::kNewUser:
      return NewUserSplit(raw, 0.2, rng);
    case SplitKind::kTemporal:
      return TemporalSplit(raw, synth.arrival_order, 0.75);
  }
  return TraditionalSplit(raw, 0.25, rng);
}

struct Fixture {
  explicit Fixture(SplitKind kind = SplitKind::kTraditional,
                   KucnetOptions opts = KucnetOptions())
      : dataset(TinyDataset(kind)), ckg(dataset.BuildCkg()) {
    PprTableOptions ppr_opts;
    ppr_opts.epsilon = 1e-6;
    ppr = PprTable::Compute(ckg, ppr_opts);
    model = std::make_unique<Kucnet>(&dataset, &ckg, &ppr, opts);
  }
  Dataset dataset;
  Ckg ckg;
  PprTable ppr;
  std::unique_ptr<Kucnet> model;
};

KucnetOptions SmallOptions() {
  KucnetOptions opts;
  opts.hidden_dim = 12;
  opts.attention_dim = 3;
  opts.depth = 3;
  opts.sample_k = 10;
  opts.learning_rate = 1e-2;
  return opts;
}

TEST(KucnetTest, ScoreShapesAndUnreachableZero) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  const auto scores = f.model->ScoreItems(0);
  EXPECT_EQ(static_cast<int64_t>(scores.size()), f.dataset.num_items);
  // At least some item reachable and scored nonzero.
  int64_t nonzero = 0;
  for (const double s : scores) nonzero += (s != 0.0);
  EXPECT_GT(nonzero, 0);
  // Items not reachable in the final layer must score exactly 0.
  const KucnetForward fwd = f.model->Forward(0);
  for (int64_t i = 0; i < f.dataset.num_items; ++i) {
    if (fwd.graph.FinalIndexOf(f.ckg.ItemNode(i)) < 0) {
      EXPECT_EQ(scores[i], 0.0) << "item " << i;
    }
  }
}

TEST(KucnetTest, ForwardDeterministic) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  const auto a = f.model->ScoreItems(3);
  const auto b = f.model->ScoreItems(3);
  EXPECT_EQ(a, b);
}

TEST(KucnetTest, AttentionWeightsInUnitInterval) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  const KucnetForward fwd = f.model->Forward(1);
  ASSERT_GT(fwd.graph.TotalEdges(), 0);
  ASSERT_EQ(fwd.attention.size(), fwd.graph.layers.size());
  for (size_t l = 0; l < fwd.attention.size(); ++l) {
    ASSERT_EQ(static_cast<int64_t>(fwd.attention[l].size()),
              fwd.graph.layers[l].num_edges());
    for (const double alpha : fwd.attention[l]) {
      EXPECT_GE(alpha, 0.0);
      EXPECT_LE(alpha, 1.0);
    }
  }
}

TEST(KucnetTest, NoAttentionVariantHasUnitWeights) {
  KucnetOptions opts = SmallOptions();
  opts.use_attention = false;
  Fixture f(SplitKind::kTraditional, opts);
  EXPECT_EQ(f.model->name(), "KUCNet-w.o.-Attn");
  const KucnetForward fwd = f.model->Forward(1);
  ASSERT_GT(fwd.graph.TotalEdges(), 0);
  ASSERT_EQ(fwd.attention.size(), fwd.graph.layers.size());
  for (size_t l = 0; l < fwd.attention.size(); ++l) {
    ASSERT_EQ(static_cast<int64_t>(fwd.attention[l].size()),
              fwd.graph.layers[l].num_edges());
    for (const double alpha : fwd.attention[l]) EXPECT_EQ(alpha, 1.0);
  }
}

TEST(KucnetTest, VariantNames) {
  KucnetOptions opts = SmallOptions();
  {
    Fixture f(SplitKind::kTraditional, opts);
    EXPECT_EQ(f.model->name(), "KUCNet");
  }
  opts.prune = PruneMode::kRandom;
  {
    Fixture f(SplitKind::kTraditional, opts);
    EXPECT_EQ(f.model->name(), "KUCNet-random");
  }
  opts.prune = PruneMode::kNone;
  {
    Fixture f(SplitKind::kTraditional, opts);
    EXPECT_EQ(f.model->name(), "KUCNet-w.o.-PPR");
  }
}

TEST(KucnetTest, ParamCountMatchesParams) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  EXPECT_EQ(f.model->ParamCount(), TotalParamCount(f.model->Params()));
  // No node embeddings: parameter count is independent of graph size and
  // small (Fig. 5's claim).
  const int64_t d = f.model->options().hidden_dim;
  EXPECT_LT(f.model->ParamCount(),
            10 * d * d * f.model->options().depth + 10 * d);
}

/// BuildLoss's gradients against central differences, for the default
/// model and each variant whose backward through shared messages differs:
/// no attention, relation-only attention with tanh, identity activation,
/// and the unpruned graph (kNone, K=0).
TEST(KucnetTest, GradientsMatchFiniteDifferences) {
  KucnetOptions base = SmallOptions();
  base.hidden_dim = 6;
  base.attention_dim = 2;
  base.sample_k = 6;
  std::vector<std::pair<const char*, KucnetOptions>> variants;
  variants.emplace_back("default", base);
  variants.emplace_back("no attention", base);
  variants.back().second.use_attention = false;
  variants.emplace_back("relation-only attention, tanh", base);
  variants.back().second.attention_on_source = false;
  variants.back().second.activation = KucnetActivation::kTanh;
  variants.emplace_back("identity activation", base);
  variants.back().second.activation = KucnetActivation::kIdentity;
  variants.emplace_back("unpruned (kNone, K=0)", base);
  variants.back().second.prune = PruneMode::kNone;
  variants.back().second.sample_k = 0;

  for (const auto& [variant, opts] : variants) {
    SCOPED_TRACE(variant);
    Fixture f(SplitKind::kTraditional, opts);
    // Pick a user with reachable positives.
    const auto train_items = f.dataset.TrainItemsByUser();
    int64_t user = -1;
    std::vector<int64_t> pos, neg;
    for (int64_t u = 0; u < f.dataset.num_users && user < 0; ++u) {
      if (train_items[u].size() < 2) continue;
      Tape probe;
      Var loss = f.model->BuildLoss(probe, u, {train_items[u][0]},
                                    {train_items[u][1]});
      if (loss.valid()) {
        user = u;
        pos = {train_items[u][0]};
        neg = {train_items[u][1]};
      }
    }
    ASSERT_GE(user, 0) << "no user with reachable pair found";
    auto fn = [&](Tape& tape) {
      Var loss = f.model->BuildLoss(tape, user, pos, neg);
      EXPECT_TRUE(loss.valid());
      return loss;
    };
    const auto result =
        CheckGradients(f.model->Params(), fn, 1e-5, 5e-4, /*max_entries=*/60);
    EXPECT_TRUE(result.ok) << "max_rel_err=" << result.max_rel_err;
  }
}

TEST(KucnetTest, TrainingReducesLossAndBeatsChance) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  Rng rng(1);
  const double first_loss = f.model->TrainEpoch(rng);
  double last_loss = first_loss;
  for (int e = 0; e < 7; ++e) last_loss = f.model->TrainEpoch(rng);
  EXPECT_LT(last_loss, first_loss);

  const EvalResult eval = EvaluateRanking(*f.model, f.dataset);
  // Chance recall@20 is roughly 20/60; a trained model must beat it clearly.
  EXPECT_GT(eval.recall, 0.45) << ToString(eval);
}

TEST(KucnetTest, NewItemsAreScoredThroughTheKg) {
  // In the new-item split, test items have no interactions. KUCNet must
  // still reach and rank them via KG bridges.
  Fixture f(SplitKind::kNewItem, SmallOptions());
  Rng rng(2);
  for (int e = 0; e < 6; ++e) f.model->TrainEpoch(rng);
  const EvalResult eval = EvaluateRanking(*f.model, f.dataset);
  EXPECT_GT(eval.recall, 0.0) << ToString(eval);
  // Sanity: at least one new item is reachable for some user.
  const auto test_by_user = f.dataset.TestItemsByUser();
  bool reachable = false;
  for (const int64_t u : f.dataset.TestUsers()) {
    const KucnetForward fwd = f.model->Forward(u);
    for (const int64_t i : test_by_user[u]) {
      if (fwd.graph.FinalIndexOf(f.ckg.ItemNode(i)) >= 0) reachable = true;
    }
    if (reachable) break;
  }
  EXPECT_TRUE(reachable);
}

TEST(KucnetTest, ScorePairOnUiGraphAgreesOnReachability) {
  // Proposition 1: without pruning, h^L_{u:i} on the user-centric graph
  // equals h^L_{u:i} on the per-pair graph C_{u,i|L}. Both forwards must
  // agree on which items are reachable and, up to the order in which the
  // two graphs sum messages, on their scores.
  int64_t reachable_pairs = 0;
  for (const KucnetActivation activation :
       {KucnetActivation::kRelu, KucnetActivation::kTanh}) {
    for (const bool on_source : {true, false}) {
      KucnetOptions opts = SmallOptions();
      opts.prune = PruneMode::kNone;
      opts.sample_k = 0;
      opts.activation = activation;
      opts.attention_on_source = on_source;
      Fixture f(SplitKind::kTraditional, opts);
      for (int64_t u = 0; u < 6; ++u) {
        const KucnetForward fwd = f.model->Forward(u);
        for (int64_t i = 0; i < f.dataset.num_items; ++i) {
          const auto [score, edges] = f.model->ScorePairOnUiGraph(u, i);
          const bool reachable =
              fwd.graph.FinalIndexOf(f.ckg.ItemNode(i)) >= 0;
          ASSERT_EQ(edges > 0, reachable) << "user " << u << " item " << i;
          reachable_pairs += reachable ? 1 : 0;
          const double want = fwd.item_scores[i];
          EXPECT_LE(std::abs(score - want),
                    1e-12 * std::max(std::abs(score), std::abs(want)))
              << "user " << u << " item " << i << " on_source=" << on_source
              << " activation=" << static_cast<int>(activation);
        }
      }
    }
  }
  EXPECT_GT(reachable_pairs, 0);
}

TEST(KucnetTest, PerPairGraphCostExceedsUserCentric) {
  // Fig. 6's premise: sum of per-pair edges across items >> user-centric
  // edges for the same user.
  KucnetOptions opts = SmallOptions();
  opts.prune = PruneMode::kNone;
  opts.sample_k = 0;
  Fixture f(SplitKind::kTraditional, opts);
  const KucnetForward fwd = f.model->Forward(0);
  const int64_t user_centric_edges = fwd.graph.TotalEdges();
  int64_t per_pair_total = 0;
  for (int64_t i = 0; i < f.dataset.num_items; ++i) {
    per_pair_total += f.model->ScorePairOnUiGraph(0, i).second;
  }
  EXPECT_GT(per_pair_total, user_centric_edges);
}

TEST(KucnetTest, TrainEpochSkipsUsersWithoutTrainData) {
  // In the new-user split, held-out users have no training interactions;
  // TrainEpoch must simply skip them (and never crash).
  Fixture f(SplitKind::kNewUser, SmallOptions());
  Rng rng(3);
  const double loss = f.model->TrainEpoch(rng);
  EXPECT_GE(loss, 0.0);
}

TEST(ExplainTest, PathsReachTheItemAndRespectThreshold) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  Rng rng(4);
  for (int e = 0; e < 3; ++e) f.model->TrainEpoch(rng);
  // Find a user and an item that is reachable.
  for (const int64_t u : f.dataset.TestUsers()) {
    const KucnetForward fwd = f.model->Forward(u);
    int64_t item = -1;
    for (int64_t i = 0; i < f.dataset.num_items; ++i) {
      if (fwd.graph.FinalIndexOf(f.ckg.ItemNode(i)) >= 0 &&
          fwd.item_scores[i] != 0.0) {
        item = i;
        break;
      }
    }
    if (item < 0) continue;
    const double threshold = 0.0;  // keep everything; structure checks below
    const auto paths = ExplainItem(fwd, f.ckg, item, threshold, 5);
    ASSERT_FALSE(paths.empty());
    for (const ExplainedPath& p : paths) {
      ASSERT_EQ(static_cast<int32_t>(p.hops.size()),
                f.model->options().depth);
      EXPECT_EQ(p.hops.front().src, f.ckg.UserNode(u));
      EXPECT_EQ(p.hops.back().dst, f.ckg.ItemNode(item));
      // Consecutive hops chain.
      for (size_t h = 1; h < p.hops.size(); ++h) {
        EXPECT_EQ(p.hops[h - 1].dst, p.hops[h].src);
      }
      for (const AttributedEdge& e : p.hops) {
        EXPECT_GE(e.attention, threshold);
      }
      EXPECT_FALSE(FormatPath(p, f.ckg).empty());
    }
    return;  // one user suffices
  }
  FAIL() << "no reachable item found for any test user";
}

TEST(ExplainTest, HighThresholdPrunesPaths) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  const KucnetForward fwd = f.model->Forward(0);
  int64_t item = -1;
  for (int64_t i = 0; i < f.dataset.num_items; ++i) {
    if (fwd.graph.FinalIndexOf(f.ckg.ItemNode(i)) >= 0) {
      item = i;
      break;
    }
  }
  ASSERT_GE(item, 0);
  const auto all = ExplainItem(fwd, f.ckg, item, 0.0, 1000);
  const auto strict = ExplainItem(fwd, f.ckg, item, 1.01, 1000);
  EXPECT_TRUE(strict.empty());
  EXPECT_GE(all.size(), strict.size());
}

TEST(ExplainTest, NameHelpers) {
  Fixture f(SplitKind::kTraditional, SmallOptions());
  const Ckg& g = f.ckg;
  EXPECT_EQ(RelationName(g, Ckg::kInteractRelation), "interact");
  EXPECT_EQ(RelationName(g, g.InverseRelation(Ckg::kInteractRelation)),
            "inv:interact");
  EXPECT_EQ(RelationName(g, 1), "kg:0");
  EXPECT_EQ(RelationName(g, g.self_loop_relation()), "self");
  EXPECT_EQ(NodeName(g, g.UserNode(2)), "user:2");
  EXPECT_EQ(NodeName(g, g.ItemNode(3)), "item:3");
  EXPECT_EQ(NodeName(g, g.KgNode(f.dataset.num_items + 1)),
            "entity:" + std::to_string(f.dataset.num_items + 1));
}

}  // namespace
}  // namespace kucnet
