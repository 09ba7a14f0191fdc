// Property test for the autograd engine: randomly composed computation
// graphs (random ops, shapes, and sharing patterns) must pass central
// finite-difference gradient checks for every parameter.

#include <gtest/gtest.h>

#include "tensor/grad_check.h"
#include "util/rng.h"

namespace kucnet {
namespace {

class RandomGraphGradTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphGradTest, RandomCompositionMatchesFiniteDifferences) {
  Rng rng(GetParam());
  const int64_t rows = 2 + rng.UniformInt(4);
  const int64_t cols = 2 + rng.UniformInt(4);

  // Parameters: two same-shape matrices, a projection, and an embedding.
  Parameter a("a", Matrix::RandomNormal(rows, cols, 0.5, rng));
  Parameter b("b", Matrix::RandomNormal(rows, cols, 0.5, rng));
  Parameter w("w", Matrix::GlorotUniform(cols, cols, rng));
  Parameter emb("emb", Matrix::RandomNormal(6, cols, 0.5, rng));

  // A reproducible random program over the tape ops. Each step transforms
  // the running value x (rows x cols); ops are chosen by the seed.
  const uint64_t op_seed = rng.Next64();
  auto fn = [&, rows, cols, op_seed](Tape& t) {
    Rng ops(op_seed);
    Var x = t.Param(&a);
    Var y = t.Param(&b);
    const int steps = 3 + static_cast<int>(ops.UniformInt(4));
    for (int s = 0; s < steps; ++s) {
      switch (ops.UniformInt(9)) {
        case 0: x = t.Add(x, y); break;
        case 1: x = t.Sub(x, y); break;
        case 2: x = t.Hadamard(x, y); break;
        case 3: x = t.Tanh(x); break;
        case 4: x = t.Sigmoid(x); break;
        case 5: x = t.ScalarMul(x, 0.7); break;
        case 6: x = t.MatMul(x, t.Param(&w)); break;
        case 7: {
          // Gather a few embedding rows and fold them in via segment-sum,
          // then fold the same edges in again through the fused op, over
          // transformed embedding rows.
          std::vector<int64_t> idx, seg;
          for (int64_t r = 0; r < rows; ++r) {
            idx.push_back(ops.UniformInt(6));
            idx.push_back(ops.UniformInt(6));
            seg.push_back(r);
            seg.push_back(r);
          }
          Var g = t.GatherParam(&emb, idx);
          x = t.Add(x, t.SegmentSum(g, seg, rows));
          Var messages = t.MatMul(t.Tanh(t.Param(&emb)), t.Param(&w));
          x = t.Add(x, t.GatherSegmentSum(messages, idx, seg, rows));
          break;
        }
        default: {
          Var scale = t.Sigmoid(t.RowDot(x, y));
          x = t.RowScale(x, scale);
          break;
        }
      }
    }
    return t.Sum(t.Softplus(x));
  };

  const auto result =
      CheckGradients({&a, &b, &w, &emb}, fn, 1e-6, 1e-4, /*max_entries=*/50);
  EXPECT_TRUE(result.ok) << "seed " << GetParam()
                         << " max_rel_err=" << result.max_rel_err;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphGradTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace kucnet
