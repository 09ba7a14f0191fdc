// Cross-module integration tests: the full pipeline a downstream user runs
// (generate -> save -> load -> build CKG -> PPR -> train KUCNet -> evaluate
// -> explain -> checkpoint), with invariants checked at every joint.

#include <filesystem>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "core/explain.h"
#include "core/kucnet.h"
#include "data/serialize.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "tensor/serialize.h"
#include "train/trainer.h"

namespace kucnet {
namespace {

TEST(IntegrationTest, FullPipelineTraditional) {
  // 1. Generate and split.
  SyntheticConfig cfg;
  cfg.seed = 314;
  cfg.num_users = 60;
  cfg.num_items = 100;
  cfg.num_topics = 5;
  cfg.interactions_per_user = 10;
  Rng rng(1);
  const Dataset original = TraditionalSplit(GenerateSynthetic(cfg).raw, 0.2, rng);

  // 2. Round-trip through disk; everything downstream uses the loaded copy.
  const std::string dir = ::testing::TempDir() + "/integration_traditional";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(TrySaveDataset(original, dir).ok());
  Dataset dataset;
  ASSERT_TRUE(TryLoadDataset(dir, &dataset).ok());
  ASSERT_EQ(dataset.train, original.train);

  // 3. Graph + PPR.
  const Ckg ckg = dataset.BuildCkg();
  const PprTable ppr = PprTable::Compute(ckg);
  ASSERT_EQ(ppr.num_users(), dataset.num_users);

  // 4. Train.
  KucnetOptions options;
  options.hidden_dim = 16;
  options.attention_dim = 3;
  options.sample_k = 15;
  Kucnet model(&dataset, &ckg, &ppr, options);
  TrainOptions train_options;
  train_options.epochs = 6;
  const TrainResult result = TrainModel(model, dataset, train_options);

  // 5. The trained model beats chance (chance recall@20 ~ 20/100).
  EXPECT_GT(result.final_eval.recall, 0.3)
      << ToString(result.final_eval);

  // 6. Explanations exist for a top recommendation and are structurally
  // valid paths from the user.
  const int64_t user = dataset.TestUsers().front();
  KucnetForward forward;
  ASSERT_TRUE(model.TryForward(user, ExecContext(), &forward).ok());
  const auto top = TopNIndices(forward.item_scores, 1);
  ASSERT_FALSE(top.empty());
  const auto paths = ExplainItem(forward, ckg, top[0], 0.0, 5);
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front().hops.front().src, ckg.UserNode(user));
  EXPECT_EQ(paths.front().hops.back().dst, ckg.ItemNode(top[0]));

  // 7. Checkpoint round-trip: restored model scores identically.
  const std::string ckpt = dir + "/model.ckpt";
  ASSERT_TRUE(TrySaveParameters(model.Params(), ckpt).ok());
  const auto scores_before = model.ScoreItems(user);
  Kucnet restored(&dataset, &ckg, &ppr, options);
  EXPECT_NE(restored.ScoreItems(user), scores_before);  // fresh init differs
  ASSERT_TRUE(TryLoadParameters(restored.Params(), ckpt).ok());
  EXPECT_EQ(restored.ScoreItems(user), scores_before);
}

TEST(IntegrationTest, NewItemPipelineNoLeakage) {
  SyntheticConfig cfg;
  cfg.seed = 315;
  cfg.num_users = 60;
  cfg.num_items = 150;
  cfg.num_topics = 5;
  cfg.interactions_per_user = 10;
  Rng rng(2);
  const Dataset dataset = NewItemSplit(GenerateSynthetic(cfg).raw, 0.2, rng);
  const Ckg ckg = dataset.BuildCkg();

  // No new item may have an interact edge in the training CKG.
  std::vector<bool> is_new(dataset.num_items, true);
  for (const auto& [u, i] : dataset.train) is_new[i] = false;
  for (const auto& [u, i] : dataset.test) {
    ASSERT_TRUE(is_new[i]);
  }
  const int64_t interact_inv = ckg.InverseRelation(Ckg::kInteractRelation);
  for (int64_t item = 0; item < dataset.num_items; ++item) {
    if (!is_new[item]) continue;
    for (const int64_t rel : ckg.OutRelations(ckg.ItemNode(item))) {
      EXPECT_NE(rel, interact_inv) << "new item " << item
                                   << " has an interaction edge";
    }
  }

  // KUCNet and the heuristics all run and produce valid evaluations.
  const PprTable ppr = PprTable::Compute(ckg);
  ModelContext ctx;
  ctx.dataset = &dataset;
  ctx.ckg = &ckg;
  ctx.ppr = &ppr;
  ctx.dim = 16;
  ctx.kucnet.hidden_dim = 16;
  ctx.kucnet.attention_dim = 3;
  ctx.kucnet.sample_k = 20;
  for (const char* name : {"PPR", "PathSim", "KUCNet"}) {
    auto model = CreateModel(name, ctx);
    TrainOptions opts;
    opts.epochs = name == std::string("KUCNet") ? 5 : 0;
    const TrainResult result = TrainModel(*model, dataset, opts);
    EXPECT_GE(result.final_eval.recall, 0.0) << name;
    EXPECT_LE(result.final_eval.recall, 1.0) << name;
    EXPECT_GT(result.final_eval.num_users, 0) << name;
  }
}

TEST(IntegrationTest, NewUserPipelineUsesUserSideKg) {
  const SyntheticConfig cfg = [] {
    SyntheticConfig c = SynthDisGeNetConfig();
    c.num_users = 80;
    c.num_items = 150;
    c.interactions_per_user = 8;
    return c;
  }();
  Rng rng(3);
  const Dataset dataset = NewUserSplit(GenerateSynthetic(cfg).raw, 0.2, rng);
  const Ckg ckg = dataset.BuildCkg();

  // New users have no interact edges but keep user-user KG edges.
  std::vector<bool> trained_user(dataset.num_users, false);
  for (const auto& [u, i] : dataset.train) trained_user[u] = true;
  int64_t checked = 0;
  for (const int64_t u : dataset.TestUsers()) {
    ASSERT_FALSE(trained_user[u]);
    bool has_interact = false;
    bool has_user_edge = false;
    const auto rels = ckg.OutRelations(ckg.UserNode(u));
    const auto dsts = ckg.OutNeighbors(ckg.UserNode(u));
    for (size_t k = 0; k < rels.size(); ++k) {
      if (rels[k] == Ckg::kInteractRelation) has_interact = true;
      if (ckg.IsUser(dsts[k])) has_user_edge = true;
    }
    EXPECT_FALSE(has_interact) << "new user " << u;
    if (has_user_edge) ++checked;
  }
  EXPECT_GT(checked, 0) << "no held-out user kept disease-disease edges";

  // KUCNet reaches items for a new user through those edges.
  const PprTable ppr = PprTable::Compute(ckg);
  KucnetOptions options;
  options.hidden_dim = 16;
  options.attention_dim = 3;
  options.sample_k = 30;
  Kucnet model(&dataset, &ckg, &ppr, options);
  Rng train_rng(4);
  for (int e = 0; e < 5; ++e) model.TrainEpoch(train_rng);
  const EvalResult eval = EvaluateRanking(model, dataset);
  EXPECT_GT(eval.recall, 0.0) << ToString(eval);
}

}  // namespace
}  // namespace kucnet
