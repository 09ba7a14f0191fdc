#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "core/kucnet.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "ppr/ppr.h"
#include "util/rng.h"

/// \file
/// Model-quality gate. The differential oracles prove that a rewritten
/// kernel or forward computes what the previous implementation computed;
/// they cannot see a rewrite that redefines the reference along with the
/// code. This test trains KUCNet on synth-lastfm from fixed seeds, runs the
/// paper's all-ranking evaluation, and holds recall@20 and NDCG@20 to
/// committed values — and above the popularity ranking's.

namespace kucnet {
namespace {

/// CI-sized: the full synth-lastfm corpus (300 users, 900 held-out
/// interactions), a narrower model than the paper's, four epochs.
constexpr int kEpochs = 4;

/// Committed quality after kEpochs (popularity: 0.150 / 0.068).
constexpr double kRecallAt20 = 0.52666666666666662;
constexpr double kNdcgAt20 = 0.30744836230846367;

/// Tolerance, from the spread across execution modes. Measured on a 4-vCPU
/// x86-64 VM (gcc, Release): KUCNET_NUM_THREADS=1, KUCNET_NUM_THREADS=4 and
/// KUCNET_FAST_KERNELS=1 (and KUCNET_SIMD=scalar) give bitwise the same
/// recall and NDCG — the trainer is deterministic across thread counts and
/// fast mode moves no ranking at this size — so that spread is 0. A zero
/// spread cannot size a tolerance by itself; it is set to 0.01 for both
/// metrics: about nine of the 900 held-out hits for recall, room for a
/// toolchain that rounds one score differently, and a third of what
/// changing only the training seeds moves these metrics (recall
/// 0.495-0.527, NDCG 0.290-0.307 over eight seeds). A change that alters
/// the training trajectory re-measures and re-commits the values above.
constexpr double kTolerance = 0.01;

/// Ranks items by training popularity: the floor a trained model must beat.
class PopularityRanker : public Ranker {
 public:
  explicit PopularityRanker(const Dataset& data)
      : counts_(data.num_items, 0.0) {
    for (const auto& [user, item] : data.train) counts_[item] += 1.0;
  }
  std::vector<double> ScoreItems(int64_t) const override { return counts_; }

 private:
  std::vector<double> counts_;
};

TEST(QualityTest, SynthLastFmKucnetHoldsCommittedRecallAndNdcg) {
  const SyntheticData synth = GenerateSynthetic(SynthLastFmConfig());
  Rng split_rng(1);
  const Dataset data = TraditionalSplit(synth.raw, 0.2, split_rng);
  const Ckg ckg = data.BuildCkg();
  const PprTable ppr = PprTable::Compute(ckg);
  KucnetOptions options;
  options.hidden_dim = 16;
  options.seed = 13;
  Kucnet model(&data, &ckg, &ppr, options);
  Rng rng(7);
  for (int epoch = 0; epoch < kEpochs; ++epoch) model.TrainEpoch(rng);

  const EvalResult kucnet = EvaluateRanking(model, data);
  const EvalResult popularity = EvaluateRanking(PopularityRanker(data), data);
  std::printf("KUCNet recall@20 %.17g ndcg@20 %.17g; popularity %.4f %.4f\n",
              kucnet.recall, kucnet.ndcg, popularity.recall,
              popularity.ndcg);
  EXPECT_NEAR(kucnet.recall, kRecallAt20, kTolerance);
  EXPECT_NEAR(kucnet.ndcg, kNdcgAt20, kTolerance);
  EXPECT_GT(kucnet.recall, popularity.recall);
  EXPECT_GT(kucnet.ndcg, popularity.ndcg);
}

}  // namespace
}  // namespace kucnet
