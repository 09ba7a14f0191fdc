#include <algorithm>
#include <fstream>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "baselines/mf.h"
#include "data/synthetic.h"
#include "tensor/serialize.h"
#include "train/negative_sampler.h"
#include "train/trainer.h"

namespace kucnet {
namespace {

Dataset SmallDataset(uint64_t seed = 21) {
  SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.num_users = 30;
  cfg.num_items = 50;
  cfg.num_topics = 4;
  cfg.interactions_per_user = 8;
  Rng rng(seed);
  return TraditionalSplit(GenerateSynthetic(cfg).raw, 0.25, rng);
}

TEST(NegativeSamplerTest, NeverReturnsPositives) {
  Dataset d = SmallDataset();
  NegativeSampler sampler(d);
  Rng rng(1);
  const auto train = d.TrainItemsByUser();
  for (int64_t u = 0; u < d.num_users; ++u) {
    const std::set<int64_t> pos(train[u].begin(), train[u].end());
    for (int k = 0; k < 200; ++k) {
      const int64_t j = sampler.Sample(u, rng);
      EXPECT_GE(j, 0);
      EXPECT_LT(j, d.num_items);
      EXPECT_FALSE(pos.count(j)) << "user " << u << " got positive " << j;
    }
  }
}

TEST(NegativeSamplerTest, IsPositiveMatchesTrainSet) {
  Dataset d = SmallDataset();
  NegativeSampler sampler(d);
  for (const auto& [u, i] : d.train) {
    EXPECT_TRUE(sampler.IsPositive(u, i));
  }
  // A few random non-pairs.
  Rng rng(2);
  const auto train = d.TrainItemsByUser();
  for (int k = 0; k < 100; ++k) {
    const int64_t u = rng.UniformInt(d.num_users);
    const int64_t i = rng.UniformInt(d.num_items);
    const bool expected =
        std::binary_search(train[u].begin(), train[u].end(), i);
    EXPECT_EQ(sampler.IsPositive(u, i), expected);
  }
}

TEST(NegativeSamplerTest, CoversNegativeSpace) {
  Dataset d = SmallDataset();
  NegativeSampler sampler(d);
  Rng rng(3);
  std::set<int64_t> seen;
  for (int k = 0; k < 3000; ++k) seen.insert(sampler.Sample(0, rng));
  // Nearly all negatives of user 0 should eventually appear.
  const auto train = d.TrainItemsByUser();
  const int64_t negatives =
      d.num_items - static_cast<int64_t>(train[0].size());
  EXPECT_GT(static_cast<int64_t>(seen.size()), negatives * 9 / 10);
}

TEST(NegativeSamplerTest, DensePositiveUserSamplesInBoundedTime) {
  // A user who has interacted with all items but one: pure rejection
  // sampling would need ~num_items draws per sample; the bounded fallback
  // must find the single negative every time, immediately.
  Dataset d;
  d.num_users = 2;
  d.num_items = 2000;
  for (int64_t i = 0; i < d.num_items; ++i) {
    if (i != 777) d.train.push_back({0, i});
  }
  d.train.push_back({1, 0});  // a sparse user sharing the sampler
  NegativeSampler sampler(d);
  Rng rng(4);
  for (int k = 0; k < 500; ++k) {
    EXPECT_EQ(sampler.Sample(0, rng), 777);
  }
  // The sparse user still gets uniform negatives from the fast path.
  std::set<int64_t> seen;
  for (int k = 0; k < 200; ++k) seen.insert(sampler.Sample(1, rng));
  EXPECT_FALSE(seen.count(0));
  EXPECT_GT(seen.size(), 50u);
}

TEST(NegativeSamplerTest, DenseFallbackStaysUniform) {
  // 10 negatives among 500 items: every negative should be hit roughly
  // equally often even though most samples go through the scan fallback.
  Dataset d;
  d.num_users = 1;
  d.num_items = 500;
  std::set<int64_t> negatives;
  for (int64_t i = 0; i < d.num_items; ++i) {
    if (i % 50 == 7) {
      negatives.insert(i);
    } else {
      d.train.push_back({0, i});
    }
  }
  NegativeSampler sampler(d);
  Rng rng(5);
  std::map<int64_t, int64_t> counts;
  const int kSamples = 5000;
  for (int k = 0; k < kSamples; ++k) ++counts[sampler.Sample(0, rng)];
  ASSERT_EQ(counts.size(), negatives.size());
  for (const auto& [item, count] : counts) {
    EXPECT_TRUE(negatives.count(item));
    // Expected 500 each; a generous 3-sigma-ish band catches bias without
    // flaking.
    EXPECT_GT(count, 350);
    EXPECT_LT(count, 650);
  }
}

TEST(TrainerTest, CurveHasOneRecordPerEpoch) {
  Dataset d = SmallDataset();
  Mf model(&d, EmbeddingModelOptions{});
  TrainOptions opts;
  opts.epochs = 5;
  opts.eval_every = 2;
  const TrainResult result = TrainModel(model, d, opts);
  ASSERT_EQ(result.curve.size(), 5u);
  for (size_t e = 0; e < result.curve.size(); ++e) {
    EXPECT_EQ(result.curve[e].epoch, static_cast<int>(e) + 1);
    EXPECT_GE(result.curve[e].loss, 0.0);
  }
  // Epochs 2 and 4 evaluated; the final epoch always is.
  EXPECT_GE(result.curve[1].recall, 0.0);
  EXPECT_LT(result.curve[2].recall, 0.0);  // not evaluated
  EXPECT_GE(result.curve[4].recall, 0.0);
  EXPECT_EQ(result.final_eval.recall, result.curve[4].recall);
}

TEST(TrainerTest, CumulativeTimeMonotone) {
  Dataset d = SmallDataset();
  Mf model(&d, EmbeddingModelOptions{});
  TrainOptions opts;
  opts.epochs = 4;
  const TrainResult result = TrainModel(model, d, opts);
  double prev = 0.0;
  for (const EpochRecord& rec : result.curve) {
    EXPECT_GE(rec.seconds_elapsed, prev);
    prev = rec.seconds_elapsed;
  }
  EXPECT_GE(result.train_seconds, prev - 1e-9);
}

TEST(TrainerTest, ZeroEpochsEvaluatesHeuristically) {
  Dataset d = SmallDataset();
  Mf model(&d, EmbeddingModelOptions{});
  TrainOptions opts;
  opts.epochs = 0;
  const TrainResult result = TrainModel(model, d, opts);
  EXPECT_TRUE(result.curve.empty());
  EXPECT_GT(result.final_eval.num_users, 0);
}

TEST(TrainerTest, SeedReproducesRun) {
  Dataset d = SmallDataset();
  TrainOptions opts;
  opts.epochs = 3;
  opts.seed = 99;
  Mf a(&d, EmbeddingModelOptions{});
  Mf b(&d, EmbeddingModelOptions{});
  const TrainResult ra = TrainModel(a, d, opts);
  const TrainResult rb = TrainModel(b, d, opts);
  ASSERT_EQ(ra.curve.size(), rb.curve.size());
  for (size_t e = 0; e < ra.curve.size(); ++e) {
    EXPECT_DOUBLE_EQ(ra.curve[e].loss, rb.curve[e].loss);
  }
  EXPECT_DOUBLE_EQ(ra.final_eval.recall, rb.final_eval.recall);
}

TEST(CheckpointTest, RoundTripRestoresValues) {
  Rng rng(5);
  Parameter a("a", Matrix::RandomNormal(4, 6, 1.0, rng));
  Parameter b("b", Matrix::RandomNormal(2, 3, 1.0, rng));
  const Matrix a_saved = a.value();
  const Matrix b_saved = b.value();
  const std::string path = ::testing::TempDir() + "/ckpt_roundtrip.bin";
  ASSERT_TRUE(TrySaveParameters({&a, &b}, path).ok());
  EXPECT_TRUE(IsCheckpoint(path));
  // Perturb, then restore.
  a.value().Scale(3.0);
  b.value().SetZero();
  ASSERT_TRUE(TryLoadParameters({&a, &b}, path).ok());
  EXPECT_TRUE(a.value().Equals(a_saved));
  EXPECT_TRUE(b.value().Equals(b_saved));
}

TEST(CheckpointTest, MismatchedShapesAndNamesAreErrors) {
  Rng rng(6);
  Parameter a("a", Matrix::RandomNormal(4, 6, 1.0, rng));
  const std::string path = ::testing::TempDir() + "/ckpt_mismatch.bin";
  ASSERT_TRUE(TrySaveParameters({&a}, path).ok());
  Parameter wrong_shape("a", Matrix::Zeros(4, 7));
  const Status shape = TryLoadParameters({&wrong_shape}, path);
  ASSERT_FALSE(shape.ok());
  EXPECT_NE(shape.message().find("shape mismatch"), std::string::npos)
      << shape.message();
  Parameter wrong_name("z", Matrix::Zeros(4, 6));
  const Status name = TryLoadParameters({&wrong_name}, path);
  ASSERT_FALSE(name.ok());
  EXPECT_NE(name.message().find("name mismatch"), std::string::npos)
      << name.message();
}

TEST(CheckpointTest, NonCheckpointFilesRejected) {
  const std::string path = ::testing::TempDir() + "/not_a_ckpt.txt";
  {
    std::ofstream out(path);
    out << "hello\n";
  }
  EXPECT_FALSE(IsCheckpoint(path));
  EXPECT_FALSE(IsCheckpoint("/definitely/missing/file"));
}

}  // namespace
}  // namespace kucnet
