// Bit-reproducibility of the threaded compute substrate: every kernel,
// gradient, optimizer step, and full training epoch must produce results
// that are bitwise identical at any thread count. Each test runs the same
// computation under 1-, 2-, and 8-worker global pools and compares exactly.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/kucnet.h"
#include "data/synthetic.h"
#include "tensor/adam.h"
#include "tensor/grad_check.h"
#include "tensor/matrix.h"
#include "tensor/parameter.h"
#include "tensor/tape.h"
#include "util/thread_pool.h"

namespace kucnet {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

/// Runs `fn` under each thread count and checks all results are bitwise
/// equal to the 1-thread result. Oversubscription is forced on so the 2- and
/// 8-worker pools are real (not clamped away) even on single-core machines —
/// the whole point is to race genuinely concurrent workers.
template <typename Fn>
void ExpectThreadCountInvariant(const char* what, const Fn& fn) {
  SetOversubscribeForTest(true);
  SetGlobalPoolThreads(1);
  const Matrix reference = fn();
  for (const int threads : kThreadCounts) {
    SetGlobalPoolThreads(threads);
    const Matrix got = fn();
    EXPECT_TRUE(reference.Equals(got))
        << what << " differs at " << threads
        << " threads (max abs diff = " << reference.MaxAbsDiff(got) << ")";
  }
  SetGlobalPoolThreads(1);
  ClearOversubscribeForTest();
}

TEST(ParallelDeterminismTest, MatMulFamily) {
  Rng rng(3);
  // Sizes chosen to cross kMatMulParallelFlops (2^17) so the threaded path
  // actually engages.
  const Matrix a = Matrix::RandomNormal(96, 200, 1.0, rng);
  const Matrix b = Matrix::RandomNormal(200, 80, 1.0, rng);
  ExpectThreadCountInvariant("MatMul", [&] { return MatMul(a, b); });

  const Matrix at = Matrix::RandomNormal(200, 96, 1.0, rng);
  ExpectThreadCountInvariant("MatMulTransposedA",
                             [&] { return MatMulTransposedA(at, b); });

  const Matrix bt = Matrix::RandomNormal(80, 200, 1.0, rng);
  ExpectThreadCountInvariant("MatMulTransposedB",
                             [&] { return MatMulTransposedB(a, bt); });
}

TEST(ParallelDeterminismTest, ElementwiseAndReductions) {
  Rng rng(5);
  const Matrix x = Matrix::RandomNormal(400, 300, 1.0, rng);  // > 2*kReduceChunk
  const Matrix y = Matrix::RandomNormal(400, 300, 1.0, rng);

  ExpectThreadCountInvariant("Add", [&] {
    Matrix z = x;
    z.Add(y);
    return z;
  });
  ExpectThreadCountInvariant("Axpy", [&] {
    Matrix z = x;
    z.Axpy(-0.37, y);
    return z;
  });
  ExpectThreadCountInvariant("Sum+SquaredNorm", [&] {
    Matrix out(1, 2);
    out.at(0, 0) = x.Sum();
    out.at(0, 1) = x.SquaredNorm();
    return out;
  });
}

TEST(ParallelDeterminismTest, SegmentSumAndGatherForwardBackward) {
  Rng rng(7);
  const int64_t edges = 60000, nodes = 500, dim = 8;  // work > 2^15
  Parameter table("table", Matrix::RandomNormal(nodes, dim, 1.0, rng));
  std::vector<int64_t> idx(edges), seg(edges);
  for (int64_t e = 0; e < edges; ++e) {
    idx[e] = rng.UniformInt(nodes);
    seg[e] = rng.UniformInt(nodes);
  }

  ExpectThreadCountInvariant("Gather/SegmentSum fwd+bwd", [&] {
    Tape tape;
    Var x = tape.Param(&table);
    Var gathered = tape.Gather(x, idx);
    Var aggregated = tape.SegmentSum(gathered, seg, nodes);
    Var loss = tape.Sum(tape.Square(aggregated));
    tape.Backward(loss);
    Matrix out = table.grad();  // scatter-accumulated dense gradient
    table.ZeroGrad();
    out.Add(tape.value(aggregated));  // and the forward value
    return out;
  });

  // The fused op over a transformed message table, both index lists long
  // enough for its parallel forward and backward.
  ExpectThreadCountInvariant("GatherSegmentSum fwd+bwd", [&] {
    Tape tape;
    Var messages = tape.Tanh(tape.Param(&table));
    Var aggregated = tape.GatherSegmentSum(messages, idx, seg, nodes);
    Var loss = tape.Sum(tape.Square(aggregated));
    tape.Backward(loss);
    Matrix out = table.grad();
    table.ZeroGrad();
    out.Add(tape.value(aggregated));
    return out;
  });
}

TEST(ParallelDeterminismTest, AdamStep) {
  Rng rng(11);
  const int64_t rows = 2000, dim = 16;
  const Matrix init = Matrix::RandomNormal(rows, dim, 0.1, rng);
  const Matrix dense_grad = Matrix::RandomNormal(rows, dim, 0.01, rng);
  std::vector<int64_t> touched;
  Matrix sparse_grad(600, dim);
  for (int64_t k = 0; k < 600; ++k) {
    touched.push_back(rng.UniformInt(rows));
    for (int64_t j = 0; j < dim; ++j) sparse_grad.at(k, j) = rng.Normal();
  }

  ExpectThreadCountInvariant("Adam dense step", [&] {
    Parameter p("w", init);
    p.AccumulateDense(dense_grad);
    Adam adam{AdamOptions()};
    std::vector<Parameter*> params = {&p};
    adam.Step(params);
    return p.value();
  });

  ExpectThreadCountInvariant("Adam lazy (touched-rows) step", [&] {
    Parameter p("emb", init);
    p.AccumulateRows(touched, sparse_grad);
    Adam adam{AdamOptions()};
    std::vector<Parameter*> params = {&p};
    adam.Step(params);
    return p.value();
  });
}

TEST(ParallelDeterminismTest, GradCheckPassesAtEveryThreadCount) {
  Rng rng(13);
  const int64_t edges = 5000, nodes = 50, dim = 8;  // crosses kRowGrain work
  Parameter table("table", Matrix::RandomNormal(nodes, dim, 0.5, rng));
  Parameter w("w", Matrix::GlorotUniform(dim, dim, rng));
  std::vector<int64_t> idx(edges), seg(edges);
  for (int64_t e = 0; e < edges; ++e) {
    idx[e] = rng.UniformInt(nodes);
    seg[e] = rng.UniformInt(nodes);
  }
  const LossFn loss_fn = [&](Tape& tape) {
    Var x = tape.Param(&table);
    Var gathered = tape.Gather(x, idx);
    Var transformed = tape.MatMul(gathered, tape.Param(&w));
    Var aggregated = tape.SegmentSum(tape.Tanh(transformed), seg, nodes);
    return tape.Mean(tape.Square(aggregated));
  };
  std::vector<Parameter*> params = {&table, &w};
  for (const int threads : kThreadCounts) {
    SetGlobalPoolThreads(threads);
    const GradCheckResult result = CheckGradients(params, loss_fn);
    EXPECT_TRUE(result.ok) << "grad check failed at " << threads
                           << " threads: max_abs_err=" << result.max_abs_err
                           << " max_rel_err=" << result.max_rel_err;
  }
  SetGlobalPoolThreads(1);
}

/// Small learnable dataset for end-to-end training determinism.
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

TEST(ParallelDeterminismTest, TrainEpochThreadCountInvariant) {
  const Dataset dataset = TinyDataset();
  const Ckg ckg = dataset.BuildCkg();
  const PprTable ppr = PprTable::Compute(ckg);
  KucnetOptions opts;
  opts.hidden_dim = 12;
  opts.attention_dim = 3;
  // Depth 3, not 2: items only reach the final layer (where the BPR pairs
  // are gathered) via user -> item -> entity -> item, so a depth-2 graph
  // trains on zero pairs and the test would compare untouched parameters.
  opts.depth = 3;
  opts.sample_k = 10;
  opts.dropout = 0.2;  // exercises the per-user dropout streams too

  std::vector<double> reference_losses;
  Matrix reference_readout;
  for (const int threads : kThreadCounts) {
    SetGlobalPoolThreads(threads);
    Kucnet model(&dataset, &ckg, &ppr, opts);
    Rng rng(opts.seed);
    std::vector<double> losses;
    for (int epoch = 0; epoch < 2; ++epoch) {
      losses.push_back(model.TrainEpoch(rng));
    }
    const Matrix readout = model.Params().back()->value();
    if (threads == 1) {
      reference_losses = losses;
      reference_readout = readout;
      continue;
    }
    for (size_t e = 0; e < losses.size(); ++e) {
      EXPECT_DOUBLE_EQ(reference_losses[e], losses[e])
          << "epoch " << e << " loss differs at " << threads << " threads";
    }
    EXPECT_TRUE(reference_readout.Equals(readout))
        << "trained readout differs at " << threads << " threads";
  }
  SetGlobalPoolThreads(1);
}

}  // namespace
}  // namespace kucnet
