// End-to-end fault tolerance of the training loop on the real KUCNet model:
// resume from a snapshot is bitwise identical to an uninterrupted run (at 1
// and 4 threads), a non-finite loss rolls back to the last good state with a
// learning-rate backoff, and a crash at any point of the snapshot IO never
// aborts training or leaves an unreadable checkpoint directory.

#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/kucnet.h"
#include "data/synthetic.h"
#include "tensor/serialize.h"
#include "train/checkpoint.h"
#include "train/trainer.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace kucnet {
namespace {

/// Fresh, empty scratch directory under the test temp dir.
std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  KUC_CHECK(DefaultFileSystem().MakeDirs(dir).ok());
  return dir;
}

/// Small learnable dataset (same shape as the determinism tests).
Dataset TinyDataset() {
  SyntheticConfig cfg;
  cfg.seed = 42;
  cfg.num_users = 30;
  cfg.num_items = 50;
  cfg.num_topics = 4;
  cfg.interactions_per_user = 8;
  cfg.entities_per_topic = 5;
  cfg.num_shared_entities = 6;
  Rng rng(42);
  return TraditionalSplit(GenerateSynthetic(cfg).raw, 0.25, rng);
}

/// Overwrites every trainable weight with +Inf, simulating a diverged
/// update. (Inf, not NaN: the Relu in the message-passing stack maps NaN to
/// 0, but Inf propagates and turns the BPR loss into Inf - Inf = NaN.)
void PoisonParams(RankModel& m) {
  for (Parameter* p : m.TrainableParams()) {
    Matrix& v = p->value();
    for (int64_t i = 0; i < v.rows(); ++i) {
      for (int64_t j = 0; j < v.cols(); ++j) {
        v.at(i, j) = std::numeric_limits<real_t>::infinity();
      }
    }
  }
}

KucnetOptions SmallKucnetOptions() {
  KucnetOptions opts;
  opts.hidden_dim = 12;
  opts.attention_dim = 3;
  // Items only enter the *final* layer at depth 3 on this dataset (user ->
  // item -> entity -> item); a shallower graph trains on zero pairs.
  opts.depth = 3;
  opts.sample_k = 10;
  opts.dropout = 0.2;  // resume must replay the dropout streams exactly
  return opts;
}

/// Fixture owning the dataset/CKG/PPR shared by every scenario.
class FaultToleranceTest : public ::testing::Test {
 protected:
  FaultToleranceTest()
      : dataset_(TinyDataset()),
        ckg_(dataset_.BuildCkg()),
        ppr_(PprTable::Compute(ckg_)) {}

  std::unique_ptr<Kucnet> NewModel() {
    return std::make_unique<Kucnet>(&dataset_, &ckg_, &ppr_,
                                    SmallKucnetOptions());
  }

  std::string CheckpointBytes(Kucnet& model, const std::string& path) {
    EXPECT_TRUE(TrySaveParameters(model.Params(), path).ok());
    std::string bytes;
    KUC_CHECK(DefaultFileSystem().ReadFile(path, &bytes).ok());
    return bytes;
  }

  Dataset dataset_;
  Ckg ckg_;
  PprTable ppr_;
};

TEST_F(FaultToleranceTest, ResumeIsBitwiseIdenticalToUninterruptedRun) {
  constexpr int kTotalEpochs = 6;
  constexpr int kInterruptAfter = 3;

  for (const int threads : {1, 4}) {
    SetGlobalPoolThreads(threads);
    const std::string tag = "t" + std::to_string(threads);

    // Reference: one uninterrupted run.
    TrainOptions full;
    full.epochs = kTotalEpochs;
    full.checkpoint_dir = ScratchDir("resume_full_" + tag);
    auto model_a = NewModel();
    const TrainResult run_a = TrainModel(*model_a, dataset_, full);
    ASSERT_EQ(run_a.curve.size(), static_cast<size_t>(kTotalEpochs));

    // "Crashed" run: train part way, drop the model entirely, then resume
    // with a brand-new model instance from the on-disk snapshot.
    const std::string dir = ScratchDir("resume_part_" + tag);
    TrainOptions part;
    part.epochs = kInterruptAfter;
    part.checkpoint_dir = dir;
    {
      auto doomed = NewModel();
      TrainModel(*doomed, dataset_, part);
    }

    TrainOptions cont = part;
    cont.epochs = kTotalEpochs;
    cont.resume = true;
    auto model_b = NewModel();
    const TrainResult run_b = TrainModel(*model_b, dataset_, cont);
    EXPECT_EQ(run_b.resumed_from_epoch, kInterruptAfter);
    ASSERT_EQ(run_b.curve.size(), static_cast<size_t>(kTotalEpochs));

    // Same learning curve (the restored prefix and the replayed suffix)...
    for (int e = 0; e < kTotalEpochs; ++e) {
      EXPECT_DOUBLE_EQ(run_a.curve[e].loss, run_b.curve[e].loss)
          << "epoch " << e + 1 << " loss differs at " << threads
          << " threads";
    }
    // ...same final metrics...
    EXPECT_DOUBLE_EQ(run_a.final_eval.recall, run_b.final_eval.recall);
    EXPECT_DOUBLE_EQ(run_a.final_eval.ndcg, run_b.final_eval.ndcg);
    // ...and a byte-identical final model checkpoint.
    const std::string bytes_a =
        CheckpointBytes(*model_a, ScratchDir("ck_" + tag) + "/a.kuc");
    const std::string bytes_b =
        CheckpointBytes(*model_b, ScratchDir("ck_" + tag) + "/b.kuc");
    EXPECT_EQ(bytes_a, bytes_b)
        << "final checkpoints differ at " << threads << " threads";
  }
  SetGlobalPoolThreads(1);
}

TEST_F(FaultToleranceTest, NonFiniteLossRollsBackAndRunCompletes) {
  auto model = NewModel();
  const double initial_lr =
      model->MutableOptimizer()->options().learning_rate;

  TrainOptions opts;
  opts.epochs = 5;
  opts.max_rollbacks = 3;
  opts.rollback_lr_backoff = 0.5;
  // Poison every parameter after epoch 2's snapshot was captured: epoch 3
  // then trains on NaN weights and must be rolled back.
  opts.post_snapshot_hook = [](int epoch, RankModel& m) {
    if (epoch == 2) PoisonParams(m);
  };

  const TrainResult result = TrainModel(*model, dataset_, opts);

  EXPECT_EQ(result.rollbacks, 1);
  ASSERT_EQ(result.curve.size(), 5u);  // the poisoned attempt is not recorded
  for (const EpochRecord& r : result.curve) {
    EXPECT_TRUE(std::isfinite(r.loss)) << "epoch " << r.epoch;
  }
  EXPECT_TRUE(std::isfinite(result.final_eval.recall));
  EXPECT_TRUE(std::isfinite(result.final_eval.ndcg));
  // The backoff stuck: one rollback halves the learning rate.
  EXPECT_DOUBLE_EQ(model->MutableOptimizer()->options().learning_rate,
                   initial_lr * 0.5);
  // And the final weights are clean.
  for (const Parameter* p : model->Params()) {
    EXPECT_TRUE(std::isfinite(p->value().Sum())) << p->name();
  }
}

using FaultToleranceDeathTest = FaultToleranceTest;

TEST_F(FaultToleranceDeathTest, ExhaustedRollbackBudgetAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto model = NewModel();
  TrainOptions opts;
  opts.epochs = 4;
  opts.max_rollbacks = 1;
  // Re-poison after every epoch: the retry budget cannot keep up.
  opts.post_snapshot_hook = [](int epoch, RankModel& m) {
    if (epoch >= 2) PoisonParams(m);
  };
  EXPECT_DEATH(TrainModel(*model, dataset_, opts), "non-finite loss");
}

TEST_F(FaultToleranceTest, SnapshotIoCrashSweepNeverAbortsTraining) {
  // Learn how many IO ops a clean checkpointed run performs...
  FaultInjectingFileSystem faulty(&DefaultFileSystem());
  TrainOptions opts;
  opts.epochs = 3;
  opts.fs = &faulty;
  {
    opts.checkpoint_dir = ScratchDir("sweep_probe");
    auto model = NewModel();
    TrainModel(*model, dataset_, opts);
  }
  const int64_t total_ops = faulty.op_count();
  ASSERT_GE(total_ops, opts.epochs);  // at least one write per epoch

  // ...then kill the IO at every op, in both failure modes. Training must
  // always complete, and the checkpoint directory must never be left in a
  // state the resume path cannot handle: the newest *valid* snapshot loads,
  // or there is none and resume starts from scratch.
  for (const FaultMode mode : {FaultMode::kFailCleanly, FaultMode::kTear}) {
    for (int64_t n = 1; n <= total_ops; ++n) {
      const std::string dir = ScratchDir("sweep_run");
      opts.checkpoint_dir = dir;
      faulty.FailFrom(n, mode);
      auto model = NewModel();
      const TrainResult result = TrainModel(*model, dataset_, opts);
      faulty.Disarm();
      ASSERT_EQ(result.curve.size(), 3u)
          << "training lost epochs, mode=" << static_cast<int>(mode)
          << " n=" << n;
      EXPECT_GE(faulty.faults_fired(), 1) << "fault never fired, n=" << n;

      std::string path;
      const int found = FindLatestTrainSnapshot(dir, &path);
      if (found >= 0) {
        auto probe = NewModel();
        TrainSnapshotMeta meta;
        EXPECT_TRUE(ReadTrainSnapshot(path, &meta, probe->Params(),
                                      probe->MutableOptimizer())
                        .ok())
            << "mode=" << static_cast<int>(mode) << " n=" << n;
        EXPECT_EQ(meta.epoch, found);
      }
    }
  }
}

}  // namespace
}  // namespace kucnet
