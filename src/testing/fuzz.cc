#include "testing/fuzz.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/kucnet.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "graph/subgraph.h"
#include "ppr/ppr.h"
#include "serve/fleet/shard_fault.h"
#include "serve/fleet/shard_router.h"
#include "serve/rec_server.h"
#include "store/container.h"
#include "store/web_scale.h"
#include "stream/streaming_ckg.h"
#include "tensor/simd.h"
#include "tensor/tape.h"
#include "testing/oracle.h"
#include "util/clock.h"
#include "util/fault.h"
#include "util/finite.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kucnet {
namespace testing {

namespace {

/// Collects mismatch descriptions for one case; empty = case passed.
class CaseResult {
 public:
  explicit CaseResult(std::string context) : context_(std::move(context)) {}

  std::ostringstream& Fail() {
    failed_ = true;
    if (!message_.str().empty()) message_ << "; ";
    return message_;
  }

  bool failed() const { return failed_; }
  std::string Describe() const { return context_ + ": " + message_.str(); }

 private:
  std::string context_;
  std::ostringstream message_;
  bool failed_ = false;
};

/// Driver shared by all subsystems: runs `cases` seeded cases and formats
/// the first failure with a copy-pastable repro line.
template <typename CaseFn>
FuzzReport RunCases(const char* subsystem, const FuzzOptions& options,
                    CaseFn&& run_case) {
  FuzzReport report;
  for (int64_t k = 0; k < options.cases; ++k) {
    const uint64_t case_seed = options.seed + static_cast<uint64_t>(k);
    CaseResult result(std::string(subsystem) + " case");
    run_case(case_seed, result);
    ++report.cases_run;
    if (result.failed()) {
      ++report.mismatches;
      if (report.first_failure.empty()) {
        std::ostringstream ss;
        ss << "subsystem=" << subsystem << " seed=" << case_seed
           << " repro: diff_fuzz --subsystem=" << subsystem
           << " --seed=" << case_seed << " --cases=1\n  " << result.Describe();
        report.first_failure = ss.str();
      }
    }
  }
  return report;
}

// ---- Tensor ------------------------------------------------------------------

/// Shape classes: degenerate (0, 1), small (2..9 straddles every register
/// tile edge: MR-1/MR/MR+1 for MR in {4, 6} and NR-1/NR/NR+1 for NR in
/// {4, 8}), mid-size crossing the parallel thresholds in matrix.cc (64^3
/// flops > 2^17; 180*200 elements > 2^15 and > 2*4096 reduction chunks),
/// and occasionally a K-panel boundary dim (254..258 around kKc = 256) so
/// the packed-panel round-trip through C gets fuzzed too.
int64_t RandomDim(Rng& rng) {
  const double r = rng.Uniform();
  if (r < 0.08) return 0;
  if (r < 0.20) return 1;
  if (r < 0.82) return 2 + rng.UniformInt(8);
  if (r < 0.96) return 48 + rng.UniformInt(33);  // 48..80
  return 254 + rng.UniformInt(5);                // 254..258
}

/// Value profiles: plain, mixed magnitudes (exponents capped so products and
/// sums stay finite), sparse-with-exact-zeros (exercises the skip-zero fast
/// path), denormal-heavy.
double RandomValue(Rng& rng, int profile) {
  switch (profile) {
    case 1: {
      const int exp10 = static_cast<int>(rng.UniformInt(161)) - 80;
      return rng.Uniform(-1.0, 1.0) * std::pow(10.0, exp10);
    }
    case 2:
      return rng.Bernoulli(0.5) ? 0.0 : rng.Uniform(-1.0, 1.0);
    case 3:
      return static_cast<double>(rng.UniformInt(1'000'000)) * 5e-324 *
             (rng.Bernoulli(0.5) ? 1.0 : -1.0);
    default:
      return rng.Uniform(-1.0, 1.0);
  }
}

Matrix RandomMatrix(Rng& rng, int64_t rows, int64_t cols, int profile) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = RandomValue(rng, profile);
  return m;
}

double SumAbs(const Matrix& m) {
  double s = 0.0;
  for (int64_t i = 0; i < m.size(); ++i) s += std::abs(m.data()[i]);
  return s;
}

void CompareMatrices(const Matrix& opt, const Matrix& oracle, uint64_t max_ulp,
                     const char* what, CaseResult& result) {
  if (opt.rows() != oracle.rows() || opt.cols() != oracle.cols()) {
    result.Fail() << what << " shape " << opt.rows() << "x" << opt.cols()
                  << " vs oracle " << oracle.rows() << "x" << oracle.cols();
    return;
  }
  for (int64_t i = 0; i < opt.size(); ++i) {
    if (!NearlyEqualUlp(opt.data()[i], oracle.data()[i], max_ulp)) {
      result.Fail() << what << " flat index " << i << ": opt=" << opt.data()[i]
                    << " oracle=" << oracle.data()[i]
                    << " ulp=" << UlpDistance(opt.data()[i], oracle.data()[i]);
      return;
    }
  }
}

/// |m| elementwise, for mass-scaled fast-mode bounds.
Matrix AbsOf(const Matrix& m) {
  Matrix out = m;
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::abs(out.data()[i]);
  }
  return out;
}

/// Fast-mode matmul check: contraction re-rounds but never re-orders, so
/// each element must sit within a tiny multiple of its term mass
/// (sum_k |a_ik||b_kj|) of the oracle value. A fixed ULP bound would be
/// wrong here — catastrophic cancellation makes the result's own ulp
/// arbitrarily small relative to the accumulated rounding.
void CompareMassBounded(const Matrix& opt, const Matrix& oracle,
                        const Matrix& mass, const char* what,
                        CaseResult& result) {
  if (opt.rows() != oracle.rows() || opt.cols() != oracle.cols()) {
    result.Fail() << what << " shape " << opt.rows() << "x" << opt.cols()
                  << " vs oracle " << oracle.rows() << "x" << oracle.cols();
    return;
  }
  for (int64_t i = 0; i < opt.size(); ++i) {
    const double bound = 1e-12 * mass.data()[i] + 1e-300;
    if (!(std::abs(opt.data()[i] - oracle.data()[i]) <= bound)) {
      result.Fail() << what << " flat index " << i << ": opt=" << opt.data()[i]
                    << " oracle=" << oracle.data()[i] << " bound=" << bound;
      return;
    }
  }
}

std::vector<SimdLevel> AvailableSimdLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (static_cast<int>(DetectedSimdLevel()) >=
      static_cast<int>(SimdLevel::kSse2)) {
    levels.push_back(SimdLevel::kSse2);
  }
  if (static_cast<int>(DetectedSimdLevel()) >=
      static_cast<int>(SimdLevel::kAvx2)) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

void TensorCase(uint64_t case_seed, CaseResult& result) {
  Rng rng(case_seed);
  ScopedFiniteChecks finite_checks;
  const int profile = static_cast<int>(rng.UniformInt(4));
  // Each case also draws a dispatch level (among those this CPU supports)
  // and a kernel mode, so the differential contract is fuzzed under every
  // combination the runtime can select. Deterministic mode must match the
  // oracle exactly at any level; fast mode is mass-bounded for matmuls.
  // Everything not built on the matmul micro-kernel (elementwise ops,
  // gather/segment-sum) stays exact in both modes.
  const std::vector<SimdLevel> levels = AvailableSimdLevels();
  const SimdLevel level =
      levels[rng.UniformInt(static_cast<int64_t>(levels.size()))];
  const bool fast = rng.Bernoulli(0.25);
  ScopedSimdLevel forced_level(level);
  ScopedKernelMode forced_mode(fast ? KernelMode::kFast
                                    : KernelMode::kDeterministic);
  const int64_t n = RandomDim(rng);
  const int64_t k = RandomDim(rng);
  const int64_t m = RandomDim(rng);
  const Matrix a = RandomMatrix(rng, n, k, profile);
  const Matrix b = RandomMatrix(rng, k, m, profile);

  // Matmul family: the optimized accumulation order per output element is
  // identical to the naive dot product, so deterministic-mode agreement is
  // exact (±0 aside).
  if (fast) {
    CompareMassBounded(MatMul(a, b), OracleMatMul(a, b),
                       OracleMatMul(AbsOf(a), AbsOf(b)), "matmul(fast)",
                       result);
  } else {
    CompareMatrices(MatMul(a, b), OracleMatMul(a, b), 0, "matmul", result);
  }
  {
    const Matrix at = RandomMatrix(rng, k, n, profile);
    if (fast) {
      CompareMassBounded(MatMulTransposedA(at, b),
                         OracleMatMulTransposedA(at, b),
                         OracleMatMulTransposedA(AbsOf(at), AbsOf(b)),
                         "matmul_ta(fast)", result);
    } else {
      CompareMatrices(MatMulTransposedA(at, b), OracleMatMulTransposedA(at, b),
                      0, "matmul_ta", result);
    }
  }
  {
    const Matrix bt = RandomMatrix(rng, m, k, profile);
    if (fast) {
      CompareMassBounded(MatMulTransposedB(a, bt),
                         OracleMatMulTransposedB(a, bt),
                         OracleMatMulTransposedB(AbsOf(a), AbsOf(bt)),
                         "matmul_tb(fast)", result);
    } else {
      CompareMatrices(MatMulTransposedB(a, bt), OracleMatMulTransposedB(a, bt),
                      0, "matmul_tb", result);
    }
  }

  // Elementwise: per-element independent, exact at any thread count.
  {
    const int64_t er = rng.Bernoulli(0.2) ? 180 : 1 + rng.UniformInt(12);
    const int64_t ec = rng.Bernoulli(0.2) ? 200 : 1 + rng.UniformInt(12);
    const Matrix x = RandomMatrix(rng, er, ec, profile);
    const Matrix y = RandomMatrix(rng, er, ec, profile);
    const real_t alpha = RandomValue(rng, 0);
    Matrix add = x;
    add.Add(y);
    CompareMatrices(add, OracleAdd(x, y), 0, "add", result);
    Matrix axpy = x;
    axpy.Axpy(alpha, y);
    CompareMatrices(axpy, OracleAxpy(alpha, x, y), 0, "axpy", result);
    Matrix scale = x;
    scale.Scale(alpha);
    CompareMatrices(scale, OracleScale(alpha, x), 0, "scale", result);

    // Reductions use a fixed-chunk tree, a different association than the
    // sequential oracle: compare within a bound scaled by the term mass.
    const double sum_tol = 1e-9 * SumAbs(x) + 1e-300;
    if (std::abs(x.Sum() - OracleSum(x)) > sum_tol) {
      result.Fail() << "sum: opt=" << x.Sum() << " oracle=" << OracleSum(x)
                    << " tol=" << sum_tol;
    }
    double sq_mass = 0.0;
    for (int64_t i = 0; i < x.size(); ++i)
      sq_mass += x.data()[i] * x.data()[i];
    const double sq_tol = 1e-9 * sq_mass + 1e-300;
    if (std::abs(x.SquaredNorm() - OracleSquaredNorm(x)) > sq_tol) {
      result.Fail() << "squared_norm: opt=" << x.SquaredNorm()
                    << " oracle=" << OracleSquaredNorm(x) << " tol=" << sq_tol;
    }
  }

  // Gather / segment-sum through the tape (the GNN message-passing
  // primitives): CSR destination grouping preserves the naive accumulation
  // order, so agreement is exact.
  {
    const int64_t rows = 1 + rng.UniformInt(rng.Bernoulli(0.15) ? 3000 : 16);
    const int64_t cols = 1 + rng.UniformInt(12);
    const Matrix src = RandomMatrix(rng, rows, cols, profile);
    const int64_t edges = rng.UniformInt(rng.Bernoulli(0.15) ? 4000 : 40);
    std::vector<int64_t> idx(edges);
    for (auto& v : idx) v = rng.UniformInt(rows);
    const int64_t segments = 1 + rng.UniformInt(10);
    std::vector<int64_t> seg(edges);
    for (auto& v : seg) v = rng.UniformInt(segments);

    Tape tape;
    const Var base = tape.Constant(src);
    const Var gathered = tape.Gather(base, idx);
    CompareMatrices(tape.value(gathered), OracleGather(src, idx), 0, "gather",
                    result);
    const Var summed = tape.SegmentSum(gathered, seg, segments);
    CompareMatrices(tape.value(summed),
                    OracleSegmentSum(OracleGather(src, idx), seg, segments), 0,
                    "segment_sum", result);

    // The fused op on the same edges, `src` as the message table: forward
    // as the pair above, and a backward that adds each segment's gradient
    // row to its edge's message row in edge order. Sum(dy ∘ out) seeds the
    // output gradient with exactly dy.
    Parameter messages("messages", src);
    const Var leaf = tape.Param(&messages);
    const Var fused = tape.GatherSegmentSum(leaf, idx, seg, segments);
    CompareMatrices(tape.value(fused),
                    OracleSegmentSum(OracleGather(src, idx), seg, segments), 0,
                    "gather_segment_sum", result);
    const Matrix dy = RandomMatrix(rng, segments, cols, profile);
    tape.Backward(tape.Sum(tape.Hadamard(fused, tape.Constant(dy))));
    CompareMatrices(tape.grad(leaf),
                    OracleSegmentSum(OracleGather(dy, seg), idx, rows), 0,
                    "gather_segment_sum backward", result);
  }
}

// ---- PPR ---------------------------------------------------------------------

/// Random CKG with adversarial topology: isolated users (no interactions),
/// dangling KG entities (no triplets), sometimes no edges at all.
Status RandomCkg(Rng& rng, Ckg* out, int64_t* num_nodes_out) {
  const int64_t users = 1 + rng.UniformInt(6);
  const int64_t items = 1 + rng.UniformInt(10);
  const int64_t kg_nodes = items + rng.UniformInt(7);
  const int64_t relations = 1 + rng.UniformInt(3);
  std::vector<std::array<int64_t, 2>> inter;
  for (int64_t u = 0; u < users; ++u) {
    if (rng.Bernoulli(0.75)) {
      const int64_t cnt = 1 + rng.UniformInt(4);
      for (int64_t c = 0; c < cnt; ++c) inter.push_back({u, rng.UniformInt(items)});
    }  // else: isolated user (deg == 0 source)
  }
  std::vector<std::array<int64_t, 3>> kg;
  const int64_t triplets = rng.UniformInt(16);
  for (int64_t t = 0; t < triplets; ++t) {
    const int64_t h = rng.UniformInt(kg_nodes);
    int64_t tail = rng.UniformInt(kg_nodes);
    if (tail == h) tail = (tail + 1) % kg_nodes;
    if (tail == h) continue;  // kg_nodes == 1
    kg.push_back({h, rng.UniformInt(relations), tail});
  }
  *num_nodes_out = users + kg_nodes;
  return Ckg::TryBuild(users, items, kg_nodes, relations, inter, kg, {}, out);
}

void PprCase(uint64_t case_seed, CaseResult& result) {
  Rng rng(case_seed);
  ScopedFiniteChecks finite_checks;
  int64_t num_nodes = 0;
  Ckg ckg;
  if (const Status built = RandomCkg(rng, &ckg, &num_nodes); !built.ok()) {
    result.Fail() << "random CKG: " << built.message();
    return;
  }
  const int64_t source = rng.UniformInt(num_nodes);
  const real_t alpha = rng.Uniform(0.05, 0.95);
  const real_t epsilon = std::pow(10.0, -(3.0 + rng.Uniform() * 5.0));

  const auto optimized = PprForwardPush(ckg, source, alpha, epsilon);
  const OraclePprResult oracle = OraclePprPush(ckg, source, alpha, epsilon);

  // Same queue discipline, same arithmetic order: bitwise agreement.
  if (optimized.size() != oracle.estimate.size()) {
    result.Fail() << "push support: opt=" << optimized.size()
                  << " oracle=" << oracle.estimate.size() << " (source="
                  << source << " alpha=" << alpha << " eps=" << epsilon << ")";
    return;
  }
  for (const auto& [node, value] : oracle.estimate) {
    const auto it = optimized.find(node);
    if (it == optimized.end() || UlpDistance(it->second, value) != 0) {
      result.Fail() << "push estimate at node " << node << ": opt="
                    << (it == optimized.end() ? 0.0 : it->second)
                    << " oracle=" << value << " (source=" << source
                    << " alpha=" << alpha << " eps=" << epsilon << ")";
      return;
    }
  }

  // Mass conservation: estimate + terminal residual account for the full
  // unit of restart mass.
  if (std::abs(oracle.total_mass - 1.0) > 1e-9) {
    result.Fail() << "mass conservation: estimate+residual=" << oracle.total_mass;
  }

  // Against the converged dense reference: push never overshoots, and the
  // total undershoot is bounded by the termination threshold (residual[v] <
  // epsilon * deg(v) for every node).
  const OracleDensePpr dense = OraclePprDense(ckg, source, alpha, 600);
  double push_total = 0.0, dense_total = 0.0, degree_total = 0.0;
  for (int64_t v = 0; v < num_nodes; ++v) {
    const auto it = optimized.find(v);
    const real_t est = it == optimized.end() ? 0.0 : it->second;
    if (est > dense.estimate[v] + 1e-9) {
      result.Fail() << "push overshoots dense reference at node " << v << ": "
                    << est << " > " << dense.estimate[v];
      return;
    }
    push_total += est;
    dense_total += dense.estimate[v];
    degree_total += static_cast<double>(ckg.OutDegree(v));
  }
  if (dense_total - push_total > epsilon * degree_total + 1e-8) {
    result.Fail() << "undershoot " << (dense_total - push_total)
                  << " exceeds epsilon*sum(deg)="
                  << epsilon * degree_total;
  }
}

// ---- Ranking / metrics -------------------------------------------------------

void RankingCase(uint64_t case_seed, CaseResult& result) {
  Rng rng(case_seed);
  const int64_t size = rng.UniformInt(120);
  const int profile = static_cast<int>(rng.UniformInt(5));
  std::vector<double> scores(size);
  for (auto& s : scores) {
    switch (profile) {
      case 1:  // NaN-laced
        s = rng.Bernoulli(0.15) ? std::numeric_limits<double>::quiet_NaN()
                                : rng.Uniform(-1.0, 1.0);
        break;
      case 2:  // Inf-laced
        s = rng.Bernoulli(0.1)
                ? (rng.Bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                                      : -std::numeric_limits<double>::infinity())
                : rng.Uniform(-1.0, 1.0);
        break;
      case 3:  // all non-finite
        s = rng.Bernoulli(0.5) ? std::numeric_limits<double>::quiet_NaN()
                               : std::numeric_limits<double>::infinity();
        break;
      case 4:  // denormals and ties
        s = rng.Bernoulli(0.4)
                ? 0.0
                : static_cast<double>(rng.UniformInt(50)) * 5e-324;
        break;
      default:
        s = rng.Uniform(-1.0, 1.0);
    }
  }

  // Mask profiles: none / random / all-masked (empty candidate pool) /
  // heavy (candidate pool smaller than n).
  std::vector<bool> mask(size, false);
  const std::vector<bool>* mask_ptr = nullptr;
  const double mask_kind = rng.Uniform();
  if (mask_kind > 0.3 && size > 0) {
    mask_ptr = &mask;
    if (mask_kind > 0.9) {
      mask.assign(size, true);  // the all-positive user: everything consumed
    } else {
      const double p = mask_kind > 0.7 ? 0.95 : rng.Uniform();
      for (int64_t i = 0; i < size; ++i) mask[i] = rng.Bernoulli(p);
    }
  }
  const int64_t n = rng.Bernoulli(0.05) ? 0 : 1 + rng.UniformInt(40);

  const auto optimized = TopNIndices(scores, n, mask_ptr);
  const auto oracle = OracleTopN(scores, n, mask_ptr);
  if (optimized != oracle) {
    std::ostringstream& out = result.Fail();
    out << "topn mismatch (size=" << size << " n=" << n << " profile="
        << profile << "): opt=[";
    for (const int64_t i : optimized) out << i << ",";
    out << "] oracle=[";
    for (const int64_t i : oracle) out << i << ",";
    out << "]";
    return;
  }

  // Metrics on the ranked list (which may be shorter than n — the
  // short-candidate-pool semantics are pinned here too).
  std::unordered_set<int64_t> test;
  const int64_t num_test = rng.UniformInt(11);
  for (int64_t t = 0; t < num_test && size > 0; ++t) {
    test.insert(rng.UniformInt(size));
  }
  const double recall = RecallAtN(optimized, test, n);
  const double recall_oracle = OracleRecallAtN(optimized, test, n);
  if (recall != recall_oracle) {
    result.Fail() << "recall: opt=" << recall << " oracle=" << recall_oracle;
  }
  const double ndcg = NdcgAtN(optimized, test, n);
  const double ndcg_oracle = OracleNdcgAtN(optimized, test, n);
  if (std::abs(ndcg - ndcg_oracle) > 1e-12) {
    result.Fail() << "ndcg: opt=" << ndcg << " oracle=" << ndcg_oracle;
  }
}

// ---- KUCNet forward ---------------------------------------------------------

/// Tiny CKGs the `kucnet` cases draw from, built once per run: a traditional
/// split with user-user edges (one more relation), and a new-user split
/// whose held-out users have no CKG edges, so their graphs are self-loops
/// only.
struct KucnetFuzzContext {
  struct Data {
    explicit Data(Dataset d)
        : dataset(std::move(d)),
          ckg(dataset.BuildCkg()),
          ppr(PprTable::Compute(ckg)) {}
    Dataset dataset;
    Ckg ckg;
    PprTable ppr;
  };

  KucnetFuzzContext() {
    SyntheticConfig cfg;
    cfg.seed = 1517;
    cfg.num_users = 16;
    cfg.num_items = 24;
    cfg.num_topics = 3;
    cfg.interactions_per_user = 5;
    cfg.interactions_jitter = 3;
    cfg.entities_per_topic = 4;
    cfg.num_shared_entities = 4;
    cfg.entity_entity_edges_per_topic = 3;
    cfg.user_user_edges_per_user = 1;
    Rng split_rng(15);
    data.push_back(std::make_unique<Data>(
        TraditionalSplit(GenerateSynthetic(cfg).raw, 0.25, split_rng)));
    cfg.seed = 1518;
    cfg.user_user_edges_per_user = 0;
    data.push_back(std::make_unique<Data>(
        NewUserSplit(GenerateSynthetic(cfg).raw, 0.25, split_rng)));
  }

  std::vector<std::unique_ptr<Data>> data;  ///< stable addresses for models
};

/// Permutes every layer's edges: the forward must be correct for any edge
/// order, not only the builder's source-grouped one.
void ShuffleEdges(Rng& rng, UserCompGraph* graph) {
  for (CompLayer& layer : graph->layers) {
    std::vector<int64_t> order(layer.num_edges());
    for (int64_t e = 0; e < layer.num_edges(); ++e) order[e] = e;
    rng.Shuffle(order);
    CompLayer shuffled;
    shuffled.nodes = layer.nodes;
    for (const int64_t e : order) {
      shuffled.src_index.push_back(layer.src_index[e]);
      shuffled.rel.push_back(layer.rel[e]);
      shuffled.dst_index.push_back(layer.dst_index[e]);
    }
    layer = std::move(shuffled);
  }
}

/// The model options both KUCNet subsystems draw: pruning mode, K including
/// 0, depth 1-4, attention and attention on the source on/off, and the three
/// activations, over small widths.
KucnetOptions RandomKucnetOptions(Rng& rng) {
  KucnetOptions opts;
  opts.hidden_dim = 1 + rng.UniformInt(8);
  opts.attention_dim = 1 + rng.UniformInt(4);
  opts.depth = 1 + static_cast<int32_t>(rng.UniformInt(4));
  constexpr std::array<PruneMode, 3> kPrunes = {
      PruneMode::kPpr, PruneMode::kNone, PruneMode::kRandom};
  opts.prune = kPrunes[rng.UniformInt(3)];
  opts.sample_k = rng.Bernoulli(0.25) ? 0 : 1 + rng.UniformInt(8);
  opts.use_attention = rng.Bernoulli(0.75);
  opts.attention_on_source = rng.Bernoulli(0.5);
  opts.activation = static_cast<KucnetActivation>(rng.UniformInt(3));
  opts.seed = rng.Next64();
  return opts;
}

std::string DescribeKucnetCase(int64_t which, const KucnetOptions& opts) {
  std::ostringstream config;
  config << "dataset=" << which << " d=" << opts.hidden_dim
         << " d_alpha=" << opts.attention_dim << " depth=" << opts.depth
         << " prune=" << static_cast<int>(opts.prune)
         << " k=" << opts.sample_k << " attention=" << opts.use_attention
         << " on_source=" << opts.attention_on_source
         << " activation=" << static_cast<int>(opts.activation);
  return config.str();
}

/// The builder options a Kucnet with `opts` builds its graphs under.
CompGraphOptions BuilderOptionsOf(const KucnetOptions& opts) {
  CompGraphOptions b;
  b.depth = opts.depth;
  b.max_edges_per_node = opts.sample_k;
  b.prune = opts.prune;
  b.self_loops = true;
  return b;
}

/// The Rng seeds Kucnet::TryExtractGraph and Kucnet::LossGraph build user
/// `user`'s graph with; kRandom pruning draws its edges from them.
uint64_t ExtractSeed(const KucnetOptions& opts, int64_t user) {
  return opts.seed ^ (0x9e37 + static_cast<uint64_t>(user));
}
uint64_t LossSeed(const KucnetOptions& opts, int64_t user) {
  return opts.seed ^ (0x51ab + static_cast<uint64_t>(user));
}

/// OracleUserCompGraph of `user` under `options`, with the user's PPR scores
/// when `options` prunes by PPR and a fresh Rng(`seed`).
UserCompGraph OracleGraphOf(const KucnetFuzzContext::Data& data,
                            const CompGraphOptions& options, int64_t user,
                            uint64_t seed,
                            const std::vector<ExcludedPair>& excluded = {}) {
  Rng rng(seed);
  const NodeScoreFn score = data.ppr.ScoreFn(user);
  return OracleUserCompGraph(data.ckg, options, data.ckg.UserNode(user),
                             options.prune == PruneMode::kPpr ? &score
                                                              : nullptr,
                             &rng, excluded);
}

/// The builder against OracleUserCompGraph: every user's TryExtractGraph and
/// LossGraph graph from the case's Kucnet, and a direct
/// CompGraphBuilder::TryBuild (self-loops on or off) that hides random
/// interact pairs, real and absent ones. In a
/// quarter of the cases a build that a FaultInjector cancels at a random
/// "subgraph" hit runs first on this thread: it must fail with an empty
/// graph and leave nothing behind for the builds after it.
void CheckGraphsAgainstOracle(const KucnetFuzzContext::Data& data,
                              const KucnetOptions& opts, Rng& rng,
                              const Kucnet& model,
                              const std::function<std::ostream&()>& fail) {
  const CompGraphOptions options = BuilderOptionsOf(opts);
  const int64_t num_users = data.dataset.num_users;

  if (rng.Bernoulli(0.25)) {
    const int64_t user = rng.UniformInt(num_users);
    const UserCompGraph full =
        OracleGraphOf(data, options, user, ExtractSeed(opts, user));
    // One "subgraph" checkpoint per expanded head node: the user, then the
    // nodes of every layer but the last.
    int64_t hits = 1;
    for (size_t l = 0; l + 1 < full.layers.size(); ++l) {
      hits += static_cast<int64_t>(full.layers[l].nodes.size());
    }
    FaultInjector injector;
    injector.Arm("subgraph", 1 + rng.UniformInt(hits));
    KucnetForward cancelled;
    const Status status = model.TryExtractGraph(
        user, ExecContext(Deadline::Infinite(), &injector), &cancelled);
    if (status.ok() || !cancelled.graph.layers.empty()) {
      fail() << "cancelled TryExtractGraph user " << user
             << (status.ok() ? " was not cancelled" : " kept its layers");
      return;
    }
  }

  for (int64_t user = 0; user < num_users; ++user) {
    KucnetForward fwd;
    const Status status = model.TryExtractGraph(user, ExecContext(), &fwd);
    if (!status.ok()) {
      fail() << "TryExtractGraph user " << user << ": " << status.message();
      return;
    }
    std::string diff = UserCompGraphDifference(
        fwd.graph, OracleGraphOf(data, options, user, ExtractSeed(opts, user)));
    if (diff.empty()) {
      diff = UserCompGraphDifference(
          model.LossGraph(user),
          OracleGraphOf(data, options, user, LossSeed(opts, user)));
      if (!diff.empty()) diff = "LossGraph: " + diff;
    } else {
      diff = "TryExtractGraph: " + diff;
    }
    if (!diff.empty()) {
      fail() << "user " << user << " " << diff;
      return;
    }
  }

  CompGraphOptions direct = options;
  direct.self_loops = rng.Bernoulli(0.75);
  const int64_t user = rng.UniformInt(num_users);
  const std::vector<std::vector<int64_t>> items_of =
      data.dataset.TrainItemsByUser();
  std::vector<ExcludedPair> excluded;
  for (int64_t k = rng.UniformInt(5); k > 0; --k) {
    const bool real = !items_of[user].empty() && rng.Bernoulli(0.75);
    const int64_t item =
        real ? items_of[user][rng.UniformInt(
                   static_cast<int64_t>(items_of[user].size()))]
             : rng.UniformInt(data.dataset.num_items);
    const int64_t owner = real || rng.Bernoulli(0.5)
                              ? user
                              : rng.UniformInt(num_users);
    excluded.push_back({data.ckg.UserNode(owner), data.ckg.ItemNode(item)});
  }
  const uint64_t seed = rng.Next64();
  const UserCompGraph want = OracleGraphOf(data, direct, user, seed, excluded);
  const NodeScoreFn score = data.ppr.ScoreFn(user);
  const CompGraphBuilder builder(&data.ckg, direct);
  Rng build_rng(seed);
  UserCompGraph got;
  const Status status = builder.TryBuild(
      data.ckg.UserNode(user),
      direct.prune == PruneMode::kPpr ? &score : nullptr, &build_rng,
      excluded, ExecContext(), &got);
  const std::string diff =
      status.ok() ? UserCompGraphDifference(got, want) : status.message();
  if (!diff.empty()) {
    fail() << "TryBuild user " << user << " with " << excluded.size()
           << " excluded pairs: " << diff;
  }
}

/// Random model options and users against OracleKucnetScores: TryForward,
/// TryForwardMany (random batch sizes, with and without pre-extracted
/// graphs, some with their edges shuffled) and ScorePairOnUiGraph must equal
/// the per-edge oracle bitwise; then every graph the model builds must equal
/// OracleUserCompGraph (CheckGraphsAgainstOracle). The scores oracle's
/// bitwise contract needs deterministic kernels, so the case forces that
/// mode whatever KUCNET_FAST_KERNELS says.
void KucnetCase(KucnetFuzzContext& ctx, uint64_t case_seed,
                CaseResult& result) {
  Rng rng(case_seed);
  ScopedKernelMode forced_mode(KernelMode::kDeterministic);
  const int64_t which =
      rng.UniformInt(static_cast<int64_t>(ctx.data.size()));
  const KucnetFuzzContext::Data& data = *ctx.data[which];
  const KucnetOptions opts = RandomKucnetOptions(rng);
  Kucnet model(&data.dataset, &data.ckg, &data.ppr, opts);

  const std::string config = DescribeKucnetCase(which, opts);
  auto fail = [&]() -> std::ostream& {
    return result.Fail() << "[" << config << "] ";
  };
  const int64_t num_users = data.dataset.num_users;
  const int64_t num_items = data.dataset.num_items;

  // True when every item score of `fwd` equals the oracle run on its graph.
  auto matches_oracle = [&](const char* what, int64_t user,
                            const KucnetForward& fwd) {
    const std::vector<real_t> want = OracleKucnetScores(model, fwd.graph);
    if (static_cast<int64_t>(fwd.item_scores.size()) != num_items) {
      fail() << what << " user " << user << ": " << fwd.item_scores.size()
             << " scores for " << num_items << " items";
      return false;
    }
    for (int64_t item = 0; item < num_items; ++item) {
      const int64_t idx = fwd.graph.FinalIndexOf(data.ckg.ItemNode(item));
      const real_t expected = idx >= 0 ? want[idx] : 0.0;
      if (UlpDistance(fwd.item_scores[item], expected) != 0) {
        fail() << what << " user " << user << " item " << item
               << ": got=" << fwd.item_scores[item] << " oracle=" << expected;
        return false;
      }
    }
    return true;
  };

  // (1) Single forwards.
  const int64_t singles = 1 + rng.UniformInt(3);
  for (int64_t k = 0; k < singles; ++k) {
    const int64_t user = rng.UniformInt(num_users);
    KucnetForward fwd;
    const Status status = model.TryForward(user, ExecContext(), &fwd);
    if (!status.ok()) {
      fail() << "TryForward user " << user << ": " << status.message();
      return;
    }
    if (!matches_oracle("TryForward", user, fwd)) return;
  }

  // (2) One batched call.
  const int64_t batch = 1 + rng.UniformInt(6);
  const bool pre_extract = rng.Bernoulli(0.5);
  std::vector<KucnetForward> outs(batch);
  std::vector<KucnetForwardWork> work(batch);
  for (int64_t k = 0; k < batch; ++k) {
    work[k].user = rng.UniformInt(num_users);
    work[k].out = &outs[k];
    if (pre_extract) {
      const Status status =
          model.TryExtractGraph(work[k].user, ExecContext(), &outs[k]);
      if (!status.ok()) {
        fail() << "TryExtractGraph user " << work[k].user << ": "
               << status.message();
        return;
      }
      if (rng.Bernoulli(0.5)) ShuffleEdges(rng, &outs[k].graph);
    }
  }
  model.TryForwardMany(&work, pre_extract);
  for (int64_t k = 0; k < batch; ++k) {
    if (!work[k].status.ok()) {
      fail() << "TryForwardMany item " << k << ": "
             << work[k].status.message();
      return;
    }
    if (!matches_oracle("TryForwardMany", work[k].user, outs[k])) return;
  }

  // (3) Per-pair U-I graphs (Fig. 6's KUCNet-UI).
  const int64_t pairs = 1 + rng.UniformInt(3);
  for (int64_t k = 0; k < pairs; ++k) {
    const int64_t user = rng.UniformInt(num_users);
    const int64_t item = rng.UniformInt(num_items);
    const int64_t user_node = data.ckg.UserNode(user);
    const int64_t item_node = data.ckg.ItemNode(item);
    const auto [score, edges] = model.ScorePairOnUiGraph(user, item);
    const LayeredEdges layered =
        ExtractUiComputationGraph(data.ckg, user_node, item_node, opts.depth);
    real_t expected = 0.0;
    if (layered.TotalEdges() > 0) {
      const UserCompGraph graph = FromLayeredEdges(layered.layers, user_node);
      const int64_t idx = graph.FinalIndexOf(item_node);
      if (idx >= 0) expected = OracleKucnetScores(model, graph)[idx];
    }
    if (edges != layered.TotalEdges() || UlpDistance(score, expected) != 0) {
      fail() << "ScorePairOnUiGraph (" << user << ", " << item
             << "): got=(" << score << ", " << edges << " edges) oracle=("
             << expected << ", " << layered.TotalEdges() << " edges)";
      return;
    }
  }

  // (4) The graphs themselves, against the map-based expansion. Its own Rng
  // leaves the draws of (1)-(3) as they were.
  Rng graph_rng(~case_seed);
  CheckGraphsAgainstOracle(data, opts, graph_rng, model, fail);
}

/// Every parameter's accumulated gradient, in Params() order, each then
/// zeroed so the next Backward starts clean.
std::vector<Matrix> TakeGradients(Kucnet& model) {
  std::vector<Matrix> grads;
  for (Parameter* p : model.Params()) {
    grads.push_back(p->grad());
    p->ZeroGrad();
  }
  return grads;
}

/// Random model options, users and (positive, negative) pairs against
/// OracleKucnetLoss: BuildLoss's loss must equal the per-edge tape's
/// bitwise, that tape's scores must equal OracleKucnetScores bitwise, and
/// every element of every parameter gradient must lie within
/// 1e-12 * scale (+1e-300) of the oracle's, since the shared-message
/// backward sums the same terms in another order. A pair's gradient is
/// sigmoid(neg - pos) * (grad neg - grad pos), which cancels to rounding
/// noise when both items are reached through the same messages (every item
/// of a depth-1 graph is), so the scale is the larger of max|g_oracle| and
/// max|g| of sum_k sigmoid(neg_k - pos_k) * (pos_k + neg_k): the same terms
/// added instead of subtracted. Pairs are drawn from the items of the final
/// layer of the graph BuildLoss builds, and now and then from all items, so
/// unreachable pairs get skipped on both sides. Kernel mode is forced
/// deterministic, as in the `kucnet` subsystem.
void KucnetGradCase(KucnetFuzzContext& ctx, uint64_t case_seed,
                    CaseResult& result) {
  Rng rng(case_seed);
  ScopedKernelMode forced_mode(KernelMode::kDeterministic);
  const int64_t which =
      rng.UniformInt(static_cast<int64_t>(ctx.data.size()));
  const KucnetFuzzContext::Data& data = *ctx.data[which];
  const KucnetOptions opts = RandomKucnetOptions(rng);
  Kucnet model(&data.dataset, &data.ckg, &data.ppr, opts);
  const std::string config = DescribeKucnetCase(which, opts);
  const int64_t user = rng.UniformInt(data.dataset.num_users);
  auto fail = [&]() -> std::ostream& {
    return result.Fail() << "[" << config << " user=" << user << "] ";
  };

  const UserCompGraph graph = model.LossGraph(user);
  std::vector<int64_t> reachable;
  for (int64_t item = 0; item < data.dataset.num_items; ++item) {
    if (graph.FinalIndexOf(data.ckg.ItemNode(item)) >= 0) {
      reachable.push_back(item);
    }
  }
  auto draw_item = [&]() {
    if (reachable.empty() || rng.Bernoulli(0.15)) {
      return rng.UniformInt(data.dataset.num_items);
    }
    return reachable[rng.UniformInt(static_cast<int64_t>(reachable.size()))];
  };
  const int64_t pairs = 1 + rng.UniformInt(4);
  std::vector<int64_t> pos, neg, pos_idx, neg_idx;
  for (int64_t k = 0; k < pairs; ++k) {
    pos.push_back(draw_item());
    neg.push_back(draw_item());
    const int64_t pi = graph.FinalIndexOf(data.ckg.ItemNode(pos.back()));
    const int64_t ni = graph.FinalIndexOf(data.ckg.ItemNode(neg.back()));
    if (pi < 0 || ni < 0) continue;
    pos_idx.push_back(pi);
    neg_idx.push_back(ni);
  }

  Tape tape;
  const Var loss = model.BuildLoss(tape, user, pos, neg);
  if (pos_idx.empty()) {
    if (loss.valid()) fail() << "BuildLoss scored pairs that are unreachable";
    return;
  }
  if (!loss.valid()) {
    fail() << "BuildLoss found none of " << pos_idx.size()
           << " reachable pairs";
    return;
  }
  tape.Backward(loss);
  const std::vector<Matrix> got = TakeGradients(model);
  Tape oracle_tape;
  const Var oracle_loss =
      OracleKucnetLoss(model, oracle_tape, graph, pos_idx, neg_idx);
  oracle_tape.Backward(oracle_loss);
  const std::vector<Matrix> want = TakeGradients(model);
  Tape mass_tape;
  {
    const Var scores = OracleKucnetTapeScores(model, mass_tape, graph);
    // The two oracles agree, so BuildLoss's bitwise loss ties its scores to
    // OracleKucnetScores too.
    const std::vector<real_t> plain = OracleKucnetScores(model, graph);
    const Matrix& taped = mass_tape.value(scores);
    for (int64_t i = 0; i < taped.rows(); ++i) {
      if (UlpDistance(taped.at(i, 0), plain[i]) != 0) {
        fail() << "OracleKucnetTapeScores node " << i << ": "
               << taped.at(i, 0) << " vs OracleKucnetScores " << plain[i];
        return;
      }
    }
    const Var pos_scores = mass_tape.Gather(scores, pos_idx);
    const Var neg_scores = mass_tape.Gather(scores, neg_idx);
    Matrix weight(static_cast<int64_t>(pos_idx.size()), 1);
    for (int64_t k = 0; k < weight.rows(); ++k) {
      const real_t x = mass_tape.value(neg_scores).at(k, 0) -
                       mass_tape.value(pos_scores).at(k, 0);
      weight.at(k, 0) = 1.0 / (1.0 + std::exp(-x));
    }
    mass_tape.Backward(mass_tape.Sum(
        mass_tape.Hadamard(mass_tape.Add(pos_scores, neg_scores),
                           mass_tape.Constant(std::move(weight)))));
  }
  const std::vector<Matrix> mass = TakeGradients(model);

  const real_t loss_value = tape.value(loss).at(0, 0);
  const real_t oracle_value = oracle_tape.value(oracle_loss).at(0, 0);
  if (UlpDistance(loss_value, oracle_value) != 0) {
    fail() << "loss=" << loss_value << " oracle=" << oracle_value;
    return;
  }
  const std::vector<Parameter*> params = model.Params();
  for (size_t p = 0; p < params.size(); ++p) {
    if (got[p].rows() != want[p].rows() || got[p].cols() != want[p].cols()) {
      fail() << params[p]->name() << " gradient shape " << got[p].rows()
             << "x" << got[p].cols() << " vs oracle " << want[p].rows()
             << "x" << want[p].cols();
      return;
    }
    real_t scale = 0.0;
    for (int64_t i = 0; i < want[p].size(); ++i) {
      scale = std::max({scale, std::abs(want[p].data()[i]),
                        std::abs(mass[p].data()[i])});
    }
    const real_t bound = 1e-12 * scale + 1e-300;
    for (int64_t i = 0; i < want[p].size(); ++i) {
      const real_t g = got[p].data()[i];
      const real_t w = want[p].data()[i];
      if (!(std::abs(g - w) <= bound)) {
        fail() << params[p]->name() << " gradient flat index " << i
               << ": got=" << g << " oracle=" << w << " bound=" << bound;
        return;
      }
    }
  }
}

// ---- Serving-tier replay -----------------------------------------------------

struct ServeFuzzContext {
  static Dataset MakeDataset() {
    SyntheticConfig cfg;
    cfg.seed = 911;
    cfg.num_users = 24;
    cfg.num_items = 40;
    cfg.num_topics = 4;
    cfg.interactions_per_user = 7;
    Rng data_rng(7);
    return TraditionalSplit(GenerateSynthetic(cfg).raw, 0.25, data_rng);
  }

  ServeFuzzContext()
      : dataset(MakeDataset()),
        ckg(dataset.BuildCkg()),
        ppr(PprTable::Compute(ckg)) {
    KucnetOptions model_opts;
    model_opts.hidden_dim = 8;
    model_opts.attention_dim = 3;
    model_opts.depth = 2;
    model_opts.sample_k = 8;
    model = std::make_unique<Kucnet>(&dataset, &ckg, &ppr, model_opts);

    RecServerOptions server_opts;
    server_opts.num_workers = 0;  // ServeSync only: strictly sequential
    server_opts.clock = &clock;
    server_opts.fault = &fault;
    server_opts.cache.capacity = 4096;  // no capacity evictions mid-case
    max_age = server_opts.cache.max_age_micros;
    server = std::make_unique<RecServer>(model.get(), &dataset, &ckg, &ppr,
                                         server_opts);

    train_items = dataset.TrainItemsByUser();
    // Popularity replay: training interaction counts, count desc, id asc.
    std::vector<int64_t> counts(dataset.num_items, 0);
    for (const auto& [user, item] : dataset.train) ++counts[item];
    popularity.resize(dataset.num_items);
    for (int64_t i = 0; i < dataset.num_items; ++i) popularity[i] = i;
    std::sort(popularity.begin(), popularity.end(),
              [&counts](int64_t a, int64_t b) {
                if (counts[a] != counts[b]) return counts[a] > counts[b];
                return a < b;
              });
    popularity_counts = std::move(counts);
  }

  /// The user's unbounded TryForward scores, memoized; a failed forward is
  /// reported on `result` and yields no scores.
  const std::vector<double>& FullScores(int64_t user, CaseResult& result) {
    auto it = full_scores.find(user);
    if (it == full_scores.end()) {
      KucnetForward forward;
      const Status status = model->TryForward(user, ExecContext(), &forward);
      if (!status.ok()) {
        result.Fail() << "TryForward for user " << user << ": "
                      << status.message();
        static const std::vector<double> kNoScores;
        return kNoScores;
      }
      it = full_scores.emplace(user, std::move(forward.item_scores)).first;
    }
    return it->second;
  }

  std::vector<double> HeuristicScores(int64_t user) const {
    std::vector<double> scores(dataset.num_items, 0.0);
    for (int64_t item = 0; item < dataset.num_items; ++item) {
      scores[item] = ppr.Score(user, ckg.ItemNode(item));
    }
    return scores;
  }

  Dataset dataset;
  Ckg ckg;
  PprTable ppr;
  std::unique_ptr<Kucnet> model;
  FakeClock clock;
  FaultInjector fault;
  std::unique_ptr<RecServer> server;
  std::vector<std::vector<int64_t>> train_items;
  std::vector<int64_t> popularity;        ///< item ids, best first
  std::vector<int64_t> popularity_counts; ///< by item id
  std::unordered_map<int64_t, std::vector<double>> full_scores;
  int64_t max_age = 0;
};

/// Sequential replay of RecServer::RankInto: exclude the user's training
/// items (unless that empties the pool), full sort under the total score
/// order, truncate to top_n.
std::vector<int64_t> ReplayRank(
    const std::vector<std::vector<int64_t>>& train_items, int64_t user,
    const std::vector<double>& scores, int64_t top_n) {
  const auto& exclude = train_items[user];
  std::vector<bool> mask(scores.size(), false);
  for (const int64_t item : exclude) mask[item] = true;
  std::vector<int64_t> ranked = OracleTopN(scores, top_n, &mask);
  if (ranked.empty()) ranked = OracleTopN(scores, top_n, nullptr);
  return ranked;
}

void ServeCase(ServeFuzzContext& ctx, uint64_t case_seed, CaseResult& result) {
  Rng rng(case_seed);
  // Start cold: expire anything deposited by earlier cases, so a standalone
  // --cases=1 repro sees the same cache state as the in-sequence run.
  ctx.clock.AdvanceMicros(ctx.max_age + 1);

  const int64_t user = rng.UniformInt(ctx.dataset.num_users);
  const int64_t top_n = 1 + rng.UniformInt(30);
  const bool warm = rng.Bernoulli(0.55);
  if (warm) {
    const RecResponse warmup = ctx.server->ServeSync({user, 0, 0});
    if (warmup.tier != ServeTier::kFull) {
      result.Fail() << "warmup did not serve from the full tier";
      return;
    }
  }
  const bool expired = warm && rng.Bernoulli(0.3);
  if (expired) ctx.clock.AdvanceMicros(ctx.max_age + 1);

  static constexpr const char* kFullStages[] = {"", "ppr", "subgraph",
                                                "forward"};
  static constexpr const char* kFallbackStages[] = {"", "cache", "heuristic",
                                                    "popularity"};
  const char* full_fault = kFullStages[rng.UniformInt(4)];
  const char* fallback_fault =
      rng.Bernoulli(0.55) ? "" : kFallbackStages[1 + rng.UniformInt(3)];
  if (*full_fault) ctx.fault.Arm(full_fault, 1);
  if (*fallback_fault) ctx.fault.Arm(fallback_fault, 1);

  const RecResponse response = ctx.server->ServeSync({user, top_n, 0});
  ctx.fault.DisarmAll();

  const auto plan = [&]() {
    std::ostringstream ss;
    ss << "(user=" << user << " top_n=" << top_n << " warm=" << warm
       << " expired=" << expired << " full_fault='" << full_fault
       << "' fallback_fault='" << fallback_fault << "')";
    return ss.str();
  };

  // Sequential replay of the degradation chain.
  ServeTier expected_tier;
  std::vector<double> tier_scores;
  const bool full_ok = *full_fault == '\0';
  const bool cache_fresh = warm && !expired;
  if (full_ok) {
    expected_tier = ServeTier::kFull;
    tier_scores = ctx.FullScores(user, result);
  } else if (std::string(fallback_fault) != "cache" && cache_fresh) {
    expected_tier = ServeTier::kCached;
    // The warmup deposited exactly these.
    tier_scores = ctx.FullScores(user, result);
  } else if (std::string(fallback_fault) != "heuristic") {
    expected_tier = ServeTier::kHeuristic;
    tier_scores = ctx.HeuristicScores(user);
  } else {
    expected_tier = ServeTier::kPopularity;
  }

  if (response.status != ResponseStatus::kOk) {
    result.Fail() << "status not kOk " << plan();
    return;
  }
  if (response.tier != expected_tier) {
    result.Fail() << "tier: got " << ServeTierName(response.tier)
                  << " expected " << ServeTierName(expected_tier) << " "
                  << plan();
    return;
  }
  if (response.degraded != (expected_tier != ServeTier::kFull)) {
    result.Fail() << "degraded flag wrong " << plan();
    return;
  }

  std::vector<int64_t> expected_items;
  std::vector<double> expected_scores;
  if (expected_tier == ServeTier::kPopularity) {
    const auto& exclude = ctx.train_items[user];
    for (const int64_t item : ctx.popularity) {
      if (static_cast<int64_t>(expected_items.size()) >= top_n) break;
      if (std::binary_search(exclude.begin(), exclude.end(), item)) continue;
      expected_items.push_back(item);
    }
    if (expected_items.empty()) {
      for (const int64_t item : ctx.popularity) {
        if (static_cast<int64_t>(expected_items.size()) >= top_n) break;
        expected_items.push_back(item);
      }
    }
    for (const int64_t item : expected_items) {
      expected_scores.push_back(
          static_cast<double>(ctx.popularity_counts[item]));
    }
  } else {
    expected_items = ReplayRank(ctx.train_items, user, tier_scores, top_n);
    for (const int64_t item : expected_items) {
      expected_scores.push_back(tier_scores[item]);
    }
  }

  if (response.items.size() != expected_items.size()) {
    result.Fail() << "item count: got " << response.items.size()
                  << " expected " << expected_items.size() << " " << plan();
    return;
  }
  for (size_t i = 0; i < expected_items.size(); ++i) {
    if (response.items[i].item != expected_items[i] ||
        UlpDistance(response.items[i].score, expected_scores[i]) != 0) {
      result.Fail() << "item " << i << ": got (" << response.items[i].item
                    << ", " << response.items[i].score << ") expected ("
                    << expected_items[i] << ", " << expected_scores[i] << ") "
                    << plan();
      return;
    }
    if (!std::isfinite(response.items[i].score)) {
      result.Fail() << "non-finite served score " << plan();
      return;
    }
  }
}

/// The PR 10 batching seams against the sequential oracle:
/// (1) `Kucnet::TryForwardMany` must be bitwise identical to N sequential
///     `TryForward` calls, in both modes (whole forward, and forward-only on
///     pre-extracted graphs);
/// (2) a pipelined server with randomized worker count, batch_max_users and
///     linger window must produce bitwise the same full-tier responses as
///     the synchronous replay — batching is a scheduling decision, never a
///     numeric one.
void BatchedServeCase(ServeFuzzContext& ctx, uint64_t case_seed,
                      CaseResult& result) {
  Rng rng(case_seed ^ 0xba7c4ed);

  // --- (1) TryForwardMany ≡ sequential TryForward -------------------------
  const int64_t n = 2 + rng.UniformInt(3);
  std::vector<int64_t> users(n);
  for (int64_t i = 0; i < n; ++i) {
    users[i] = rng.UniformInt(ctx.dataset.num_users);
  }
  std::vector<KucnetForward> sequential(n);
  for (int64_t i = 0; i < n; ++i) {
    const Status status =
        ctx.model->TryForward(users[i], ExecContext(), &sequential[i]);
    if (!status.ok()) {
      result.Fail() << "sequential TryForward failed: " << status.message();
      return;
    }
  }
  const bool pre_extract = rng.Bernoulli(0.5);
  std::vector<KucnetForward> batched(n);
  std::vector<KucnetForwardWork> work(n);
  for (int64_t i = 0; i < n; ++i) {
    work[i].user = users[i];
    work[i].out = &batched[i];
    if (pre_extract) {
      const Status status =
          ctx.model->TryExtractGraph(users[i], ExecContext(), &batched[i]);
      if (!status.ok()) {
        result.Fail() << "TryExtractGraph failed: " << status.message();
        return;
      }
    }
  }
  ctx.model->TryForwardMany(&work, pre_extract);
  for (int64_t i = 0; i < n; ++i) {
    if (!work[i].status.ok()) {
      result.Fail() << "TryForwardMany item " << i
                    << " failed: " << work[i].status.message();
      return;
    }
    const auto& got = batched[i].item_scores;
    const auto& want = sequential[i].item_scores;
    if (got.size() != want.size()) {
      result.Fail() << "forward_many score count mismatch for user "
                    << users[i];
      return;
    }
    for (size_t s = 0; s < want.size(); ++s) {
      if (UlpDistance(got[s], want[s]) != 0) {
        result.Fail() << "forward_many score " << s << " for user "
                      << users[i] << " (pre_extract=" << pre_extract
                      << "): batched=" << got[s] << " sequential=" << want[s];
        return;
      }
    }
  }

  // --- (2) pipelined server ≡ sequential replay ----------------------------
  FakeClock clock;
  RecServerOptions opts;
  opts.num_workers = 1 + static_cast<int>(rng.UniformInt(3));
  opts.batch_max_users = 1 + rng.UniformInt(8);
  opts.batch_linger_micros = rng.Bernoulli(0.5) ? 0 : 1'000;
  opts.default_deadline_micros = 1'000'000'000;  // nothing expires mid-case
  opts.clock = &clock;
  opts.cache.capacity = 4096;
  RecServer server(ctx.model.get(), &ctx.dataset, &ctx.ckg, &ctx.ppr, opts);

  const int64_t requests = 1 + rng.UniformInt(8);
  std::vector<int64_t> req_users(requests), req_top_n(requests);
  std::vector<std::future<RecResponse>> futures;
  for (int64_t r = 0; r < requests; ++r) {
    req_users[r] = rng.UniformInt(ctx.dataset.num_users);
    req_top_n[r] = 1 + rng.UniformInt(30);
    futures.push_back(server.Submit({req_users[r], req_top_n[r], 0}));
  }
  for (int64_t r = 0; r < requests; ++r) {
    // A lingering partial batch waits on the Clock seam; the batch stage
    // polls the FakeClock, so advancing past the window releases it.
    while (futures[r].wait_for(std::chrono::milliseconds(2)) !=
           std::future_status::ready) {
      clock.AdvanceMicros(2'000);
    }
    const RecResponse response = futures[r].get();
    if (response.status != ResponseStatus::kOk ||
        response.tier != ServeTier::kFull) {
      result.Fail() << "pipelined request " << r << " (user " << req_users[r]
                    << ") not served from the full tier";
      return;
    }
    const std::vector<double>& scores =
        ctx.FullScores(req_users[r], result);
    const std::vector<int64_t> expected =
        ReplayRank(ctx.train_items, req_users[r], scores, req_top_n[r]);
    if (response.items.size() != expected.size()) {
      result.Fail() << "pipelined item count for user " << req_users[r]
                    << ": got " << response.items.size() << " expected "
                    << expected.size();
      return;
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      if (response.items[i].item != expected[i] ||
          UlpDistance(response.items[i].score, scores[expected[i]]) != 0) {
        result.Fail() << "pipelined item " << i << " for user "
                      << req_users[r] << " (workers=" << opts.num_workers
                      << " batch_max=" << opts.batch_max_users
                      << " linger=" << opts.batch_linger_micros
                      << "): got (" << response.items[i].item << ","
                      << response.items[i].score << ") expected ("
                      << expected[i] << "," << scores[expected[i]] << ")";
        return;
      }
    }
  }
  server.Shutdown();
}

// ---- Fleet -------------------------------------------------------------------

/// Shared corpus for the fleet sweep: one dataset and three identically
/// seeded shard models (so every shard's full tier is bitwise identical and
/// one memoized forward pass predicts any shard's answer). The router,
/// clock, and both injectors are recreated per case — breakers, tenant
/// windows and shard-fault state start fresh, so any case replays standalone
/// with --cases=1.
struct FleetFuzzContext {
  static constexpr int kShards = 3;

  FleetFuzzContext()
      : dataset(ServeFuzzContext::MakeDataset()),
        ckg(dataset.BuildCkg()),
        ppr(PprTable::Compute(ckg)) {
    KucnetOptions model_opts;
    model_opts.hidden_dim = 8;
    model_opts.attention_dim = 3;
    model_opts.depth = 2;
    model_opts.sample_k = 8;
    for (int s = 0; s < kShards; ++s) {
      models.push_back(
          std::make_unique<Kucnet>(&dataset, &ckg, &ppr, model_opts));
      model_ptrs.push_back(models.back().get());
    }
    train_items = dataset.TrainItemsByUser();
    std::vector<int64_t> counts(dataset.num_items, 0);
    for (const auto& [user, item] : dataset.train) ++counts[item];
    popularity.resize(dataset.num_items);
    for (int64_t i = 0; i < dataset.num_items; ++i) popularity[i] = i;
    std::sort(popularity.begin(), popularity.end(),
              [&counts](int64_t a, int64_t b) {
                if (counts[a] != counts[b]) return counts[a] > counts[b];
                return a < b;
              });
    popularity_counts = std::move(counts);
  }

  /// The user's unbounded TryForward scores on replica 0, memoized; a
  /// failed forward is reported on `result` and yields no scores.
  const std::vector<double>& FullScores(int64_t user, CaseResult& result) {
    auto it = full_scores.find(user);
    if (it == full_scores.end()) {
      KucnetForward forward;
      const Status status =
          models[0]->TryForward(user, ExecContext(), &forward);
      if (!status.ok()) {
        result.Fail() << "TryForward for user " << user << ": "
                      << status.message();
        static const std::vector<double> kNoScores;
        return kNoScores;
      }
      it = full_scores.emplace(user, std::move(forward.item_scores)).first;
    }
    return it->second;
  }

  /// The popularity replay shared with ServeCase, as (item, score) pairs.
  std::vector<int64_t> PopularityItems(int64_t user, int64_t top_n) const {
    std::vector<int64_t> items;
    const auto& exclude = train_items[user];
    for (const int64_t item : popularity) {
      if (static_cast<int64_t>(items.size()) >= top_n) break;
      if (std::binary_search(exclude.begin(), exclude.end(), item)) continue;
      items.push_back(item);
    }
    if (items.empty()) {
      for (const int64_t item : popularity) {
        if (static_cast<int64_t>(items.size()) >= top_n) break;
        items.push_back(item);
      }
    }
    return items;
  }

  Dataset dataset;
  Ckg ckg;
  PprTable ppr;
  std::vector<std::unique_ptr<Kucnet>> models;
  std::vector<Kucnet*> model_ptrs;
  std::vector<std::vector<int64_t>> train_items;
  std::vector<int64_t> popularity;
  std::vector<int64_t> popularity_counts;
  std::unordered_map<int64_t, std::vector<double>> full_scores;
};

void FleetCase(FleetFuzzContext& ctx, uint64_t case_seed, CaseResult& result) {
  Rng rng(case_seed);
  FakeClock clock;
  ShardFaultInjector shard_fault;
  FaultInjector stage_fault;
  ShardRouterOptions opts;
  opts.server.num_workers = 0;  // ServeSync: strictly sequential replay
  opts.clock = &clock;
  opts.shard_fault = &shard_fault;
  opts.stage_fault = &stage_fault;
  opts.wait_micros = [&clock](int64_t micros) { clock.AdvanceMicros(micros); };
  opts.max_retries = static_cast<int>(rng.UniformInt(3));  // 0..2
  opts.hedging = rng.Bernoulli(0.3);
  opts.jitter_seed = case_seed;
  ShardRouter router(ctx.model_ptrs, &ctx.dataset, &ctx.ckg, &ctx.ppr, opts);

  const int64_t user = rng.UniformInt(ctx.dataset.num_users);
  const std::vector<int> prefs = router.PreferenceOrder(user);

  // One whole-shard fault site per case, biased toward the user's primary
  // shard (faults elsewhere are mostly invisible to this user's requests).
  enum Kind { kNone, kKillOne, kKillAll, kStall, kFlap };
  const Kind kind = static_cast<Kind>(rng.UniformInt(5));
  const int target =
      rng.Bernoulli(0.7) ? prefs[0]
                         : static_cast<int>(rng.UniformInt(
                               FleetFuzzContext::kShards));
  switch (kind) {
    case kNone:
      break;
    case kKillOne:
      shard_fault.Kill(target);
      break;
    case kKillAll:
      for (int s = 0; s < FleetFuzzContext::kShards; ++s) shard_fault.Kill(s);
      break;
    case kStall:
      shard_fault.Stall(target, 1000 + rng.UniformInt(50'000));
      break;
    case kFlap:
      shard_fault.Flap(target, 1 + rng.UniformInt(3));
      break;
  }

  // Optionally a per-stage compute fault, armed fresh before each request:
  // whichever shard reaches the stage first consumes it.
  static constexpr const char* kStageSites[] = {
      "", "ppr", "subgraph", "forward", "cache", "heuristic", "popularity"};
  const char* site = kStageSites[rng.UniformInt(7)];

  const int64_t requests = 1 + rng.UniformInt(3);
  const auto plan = [&](int64_t k) {
    std::ostringstream ss;
    ss << "(user=" << user << " kind=" << static_cast<int>(kind)
       << " target=" << target << " site='" << site << "'"
       << " retries=" << opts.max_retries << " hedging=" << opts.hedging
       << " request=" << k << ")";
    return ss.str();
  };

  for (int64_t k = 0; k < requests; ++k) {
    if (*site) stage_fault.Arm(site, 1);
    const int64_t top_n = 1 + rng.UniformInt(20);
    FleetRequest request;
    request.request.user = user;
    request.request.top_n = top_n;
    const FleetResponse got = router.Route(request);

    // The fleet contract: with quotas off, every request is answered with a
    // non-empty, finite ranked list — no matter what was injected.
    if (got.response.status != ResponseStatus::kOk) {
      result.Fail() << "status not kOk " << plan(k);
      return;
    }
    if (got.response.items.empty()) {
      result.Fail() << "empty ranked list " << plan(k);
      return;
    }
    for (const ScoredItem& scored : got.response.items) {
      if (!std::isfinite(scored.score)) {
        result.Fail() << "non-finite served score " << plan(k);
        return;
      }
    }

    if (kind == kNone && *site == '\0') {
      // Clean fleet: the primary shard answers at full tier on the first
      // attempt, and (all shard models being identical) the items are
      // exactly the memoized full-scores replay.
      if (got.path != FleetPath::kPrimary || got.shard != prefs[0] ||
          got.attempts != 1 || got.response.tier != ServeTier::kFull) {
        result.Fail() << "clean fleet did not serve full-tier on primary "
                      << plan(k);
        return;
      }
      const std::vector<int64_t> expected = ReplayRank(
          ctx.train_items, user, ctx.FullScores(user, result), top_n);
      if (got.response.items.size() != expected.size()) {
        result.Fail() << "full replay size mismatch " << plan(k);
        return;
      }
      for (size_t i = 0; i < expected.size(); ++i) {
        if (got.response.items[i].item != expected[i]) {
          result.Fail() << "full replay item " << i << " mismatch " << plan(k);
          return;
        }
      }
    }

    if (kind == kKillAll) {
      // Every shard down: the cross-shard popularity fallback answers, and
      // its ranking is exactly the popularity replay.
      if (got.path != FleetPath::kFallback || got.shard != -1 ||
          got.response.tier != ServeTier::kPopularity) {
        result.Fail() << "all-down fleet did not hit the fallback "
                      << plan(k);
        return;
      }
      const std::vector<int64_t> expected = ctx.PopularityItems(user, top_n);
      if (got.response.items.size() != expected.size()) {
        result.Fail() << "fallback size mismatch " << plan(k);
        return;
      }
      for (size_t i = 0; i < expected.size(); ++i) {
        if (got.response.items[i].item != expected[i] ||
            UlpDistance(got.response.items[i].score,
                        static_cast<double>(
                            ctx.popularity_counts[expected[i]])) != 0) {
          result.Fail() << "fallback item " << i << " mismatch " << plan(k);
          return;
        }
      }
    }
  }

  // Counter reconciliation across the whole case: the router consulted the
  // shard injector on every attempt, every down verdict was recorded, and
  // stage faults that fired inside shards surface in the merged stats.
  const FleetStats stats = router.stats();
  int64_t injector_attempts = 0;
  for (int s = 0; s < FleetFuzzContext::kShards; ++s) {
    injector_attempts += shard_fault.attempts(s);
  }
  if (stats.attempts != injector_attempts) {
    result.Fail() << "attempts " << stats.attempts << " != injector "
                  << injector_attempts << " " << plan(-1);
    return;
  }
  if (stats.shard_down_failures != shard_fault.faults_fired()) {
    result.Fail() << "down failures " << stats.shard_down_failures
                  << " != injector " << shard_fault.faults_fired() << " "
                  << plan(-1);
    return;
  }
  if (stats.shards.fault_events != stage_fault.faults_fired()) {
    result.Fail() << "stage fault events " << stats.shards.fault_events
                  << " != injector " << stage_fault.faults_fired() << " "
                  << plan(-1);
    return;
  }
  if (stats.answered != requests) {
    result.Fail() << "answered " << stats.answered << " != routed "
                  << requests << " " << plan(-1);
  }
}

// ---- Stream ------------------------------------------------------------------

/// Random tiny dataset for the streaming layer: isolated users, random KG,
/// sometimes no training interactions at all.
Dataset RandomStreamDataset(Rng& rng) {
  Dataset d;
  d.name = "fuzz-stream";
  d.num_users = 1 + rng.UniformInt(5);
  d.num_items = 1 + rng.UniformInt(6);
  d.num_kg_nodes = d.num_items + rng.UniformInt(5);
  d.num_kg_relations = 1 + rng.UniformInt(3);
  for (int64_t u = 0; u < d.num_users; ++u) {
    if (rng.Bernoulli(0.7)) {
      const int64_t cnt = 1 + rng.UniformInt(3);
      for (int64_t c = 0; c < cnt; ++c) {
        d.train.push_back({u, rng.UniformInt(d.num_items)});
      }
    }  // else: isolated user whose first edge arrives via the stream
  }
  const int64_t triplets = rng.UniformInt(10);
  for (int64_t t = 0; t < triplets; ++t) {
    const int64_t h = rng.UniformInt(d.num_kg_nodes);
    int64_t tail = rng.UniformInt(d.num_kg_nodes);
    if (tail == h) tail = (tail + 1) % d.num_kg_nodes;
    if (tail == h) continue;  // single-node KG
    d.kg.push_back({h, rng.UniformInt(d.num_kg_relations), tail});
  }
  return d;
}

struct StreamOp {
  bool interaction;
  int64_t a, b, c;
};

/// Random update script: interactions and KG triplets, with a 20% chance of
/// replaying an earlier update verbatim (a guaranteed duplicate).
std::vector<StreamOp> RandomStreamScript(Rng& rng, const Dataset& d) {
  const int64_t n = rng.UniformInt(13);
  std::vector<StreamOp> script;
  for (int64_t k = 0; k < n; ++k) {
    if (!script.empty() && rng.Bernoulli(0.2)) {
      script.push_back(
          script[rng.UniformInt(static_cast<int64_t>(script.size()))]);
    } else if (d.num_kg_nodes < 2 || rng.Bernoulli(0.6)) {
      script.push_back({true, rng.UniformInt(d.num_users),
                        rng.UniformInt(d.num_items), 0});
    } else {
      const int64_t h = rng.UniformInt(d.num_kg_nodes);
      int64_t tail = rng.UniformInt(d.num_kg_nodes);
      if (tail == h) tail = (tail + 1) % d.num_kg_nodes;
      script.push_back({false, h, rng.UniformInt(d.num_kg_relations), tail});
    }
  }
  return script;
}

Status ApplyStreamOp(StreamingCkg* stream, const StreamOp& op) {
  return op.interaction ? stream->AppendInteraction(op.a, op.b)
                        : stream->AppendKgTriplet(op.a, op.b, op.c);
}

/// The value stored for `node` in `vec`, or 0 if it has no entry (binary
/// search).
real_t FlatPprValue(const FlatPprVector& vec, int64_t node) {
  const auto it = std::lower_bound(
      vec.begin(), vec.end(), node,
      [](const PprEntry& e, int64_t key) { return e.node < key; });
  return it != vec.end() && it->node == node ? it->value : 0.0;
}

/// Same keys (`a` strictly ascending), and the same raw bits under every key.
bool SameBits(const FlatPprVector& a,
              const std::unordered_map<int64_t, real_t>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto& [node, value] = a[i];
    if (i > 0 && a[i - 1].node >= node) return false;  // strictly ascending
    const auto it = b.find(node);
    if (it == b.end() ||
        std::bit_cast<uint64_t>(it->second) != std::bit_cast<uint64_t>(value)) {
      return false;
    }
  }
  return true;
}

void StreamCase(uint64_t case_seed, CaseResult& result) {
  Rng rng(case_seed);
  const Dataset data = RandomStreamDataset(rng);
  StreamingCkgOptions opts;
  opts.ppr.alpha = rng.Uniform(0.1, 0.9);
  opts.ppr.epsilon = std::pow(10.0, -(2.0 + rng.Uniform() * 4.0));
  opts.wal.segment_records = 1 + rng.UniformInt(5);  // exercise rotation
  const std::vector<StreamOp> script = RandomStreamScript(rng, data);

  // Clean run: stream the whole script, remembering the state digest after
  // every acked update (digests[k] = state after k acks). Odd cases open the
  // table on a pool, so the repair runs its users on several workers; the
  // serial reopen below must still reach the same digest.
  std::unique_ptr<ThreadPool> pool;
  if (case_seed % 2 == 1) pool = std::make_unique<ThreadPool>(3);
  InMemoryFileSystem clean_fs;
  std::unique_ptr<StreamingCkg> clean;
  Status st =
      StreamingCkg::Open(data, &clean_fs, "wal", opts, pool.get(), &clean);
  if (!st.ok()) {
    result.Fail() << "clean open: " << st.message();
    return;
  }
  // Each user's state must equal the oracles' key for key and bit for bit:
  // a freshly opened table is a plain push per user on the base graph, and
  // every acked update repairs it as OraclePprRepair does on a shadow graph
  // that takes the same updates.
  auto same_as_oracle = [&](const std::vector<OraclePprResult>& oracle,
                            const std::string& when) {
    for (int64_t u = 0; u < data.num_users; ++u) {
      if (!SameBits(clean->ppr().Estimate(u), oracle[u].estimate) ||
          !SameBits(clean->ppr().Residual(u), oracle[u].residual)) {
        result.Fail() << "PPR state of user " << u << " " << when
                      << " differs from the oracle (alpha=" << opts.ppr.alpha
                      << " eps=" << opts.ppr.epsilon << ")";
        return false;
      }
    }
    return true;
  };
  const Ckg& base = clean->graph().base();
  std::vector<OraclePprResult> oracle(data.num_users);
  for (int64_t u = 0; u < data.num_users; ++u) {
    oracle[u] = OraclePprPush(base, base.UserNode(u), opts.ppr.alpha,
                              opts.ppr.epsilon);
  }
  if (!same_as_oracle(oracle, "after open")) return;

  DynamicCkg shadow(data.num_users, data.num_items, data.num_kg_nodes,
                    data.num_kg_relations, data.train, data.kg, data.user_kg);
  std::vector<uint64_t> digests{clean->StateDigest()};
  for (size_t k = 0; k < script.size(); ++k) {
    const StreamOp& op = script[k];
    st = ApplyStreamOp(clean.get(), op);
    if (!st.ok()) {
      result.Fail() << "clean append: " << st.message();
      return;
    }
    digests.push_back(clean->StateDigest());
    std::vector<Edge> inserted;
    if (op.interaction) {
      shadow.AddInteraction(op.a, op.b, &inserted);
    } else {
      shadow.AddKgTriplet(op.a, op.b, op.c, &inserted);
    }
    if (!inserted.empty()) {  // a duplicate changes nothing
      for (OraclePprResult& state : oracle) {
        OraclePprRepair(shadow, inserted, opts.ppr.alpha, opts.ppr.epsilon,
                        &state.estimate, &state.residual);
      }
    }
    if (!same_as_oracle(oracle, "after update " + std::to_string(k))) return;
  }

  // Out-of-range updates must be rejected without touching state or WAL.
  if (clean->AppendInteraction(data.num_users, 0).ok() ||
      clean->AppendInteraction(0, -1).ok() ||
      clean->AppendKgTriplet(0, data.num_kg_relations, 0).ok()) {
    result.Fail() << "out-of-range update accepted";
    return;
  }
  if (clean->StateDigest() != digests.back()) {
    result.Fail() << "rejected update mutated state";
    return;
  }

  // Incremental repair vs the full-recompute oracle, every user: each PPR
  // value may differ by at most the combined unpushed residual mass, and
  // estimate + residual must account for the full unit of restart mass.
  for (int64_t u = 0; u < data.num_users; ++u) {
    const OraclePprResult oracle = OracleStreamRecompute(
        clean->graph(), u, opts.ppr.alpha, opts.ppr.epsilon);
    if (std::abs(oracle.total_mass - 1.0) > 1e-9) {
      result.Fail() << "oracle mass for user " << u << ": "
                    << oracle.total_mass;
      return;
    }
    double fresh_residual = 0.0, inc_mass = 0.0;
    for (const auto& [node, r] : oracle.residual) fresh_residual += std::abs(r);
    for (const auto& [node, v] : clean->ppr().Estimate(u)) inc_mass += v;
    for (const auto& [node, r] : clean->ppr().Residual(u)) inc_mass += r;
    if (std::abs(inc_mass - 1.0) > 1e-9) {
      result.Fail() << "incremental mass for user " << u << ": " << inc_mass;
      return;
    }
    const double bound =
        clean->ppr().ResidualMass(u) + fresh_residual + 1e-12;
    const FlatPprVector inc = clean->ppr().Estimate(u);
    for (const auto& [node, fresh] : oracle.estimate) {
      const double got = FlatPprValue(inc, node);
      if (std::abs(got - fresh) > bound) {
        result.Fail() << "user " << u << " node " << node << ": inc=" << got
                      << " fresh=" << fresh << " bound=" << bound;
        return;
      }
    }
    for (const auto& [node, got] : inc) {
      if (oracle.estimate.count(node) == 0 && std::abs(got) > bound) {
        result.Fail() << "user " << u << " node " << node << ": inc=" << got
                      << " fresh=0 bound=" << bound;
        return;
      }
    }
  }

  // Recovery replays the WAL into a byte-identical state.
  std::unique_ptr<StreamingCkg> reopened;
  st = StreamingCkg::Open(data, &clean_fs, "wal", opts, nullptr, &reopened);
  if (!st.ok()) {
    result.Fail() << "reopen: " << st.message();
    return;
  }
  if (reopened->stats().replayed != static_cast<int64_t>(script.size()) ||
      reopened->StateDigest() != digests.back()) {
    result.Fail() << "reopen digest/replay mismatch (replayed "
                  << reopened->stats().replayed << " of " << script.size()
                  << ")";
    return;
  }

  // Crash run: kill at a random IO op (clean or torn write), recover, check
  // the state equals the acked prefix's digest, then finish the script and
  // converge to the clean run's final digest.
  if (!script.empty()) {
    InMemoryFileSystem base_fs;
    FaultInjectingFileSystem faulty(&base_fs);
    std::unique_ptr<StreamingCkg> victim;
    st = StreamingCkg::Open(data, &faulty, "wal", opts, nullptr, &victim);
    if (!st.ok()) {
      result.Fail() << "victim open: " << st.message();
      return;
    }
    const int64_t kill_at =
        1 + rng.UniformInt(3 * static_cast<int64_t>(script.size()));
    const FaultMode mode =
        rng.Bernoulli(0.5) ? FaultMode::kFailCleanly : FaultMode::kTear;
    faulty.FailFrom(kill_at, mode);
    size_t acked = 0;
    for (const StreamOp& op : script) {
      if (!ApplyStreamOp(victim.get(), op).ok()) break;
      ++acked;
    }
    faulty.Disarm();
    std::unique_ptr<StreamingCkg> recovered;
    st = StreamingCkg::Open(data, &faulty, "wal", opts, nullptr, &recovered);
    if (!st.ok()) {
      result.Fail() << "crash recovery (kill_at=" << kill_at
                    << "): " << st.message();
      return;
    }
    if (recovered->stats().replayed != static_cast<int64_t>(acked) ||
        recovered->StateDigest() != digests[acked]) {
      result.Fail() << "crash recovery digest at acked=" << acked
                    << " kill_at=" << kill_at << " mode="
                    << (mode == FaultMode::kTear ? "tear" : "clean");
      return;
    }
    for (size_t k = acked; k < script.size(); ++k) {
      if (!ApplyStreamOp(recovered.get(), script[k]).ok()) {
        result.Fail() << "post-recovery append " << k << " failed";
        return;
      }
    }
    if (recovered->StateDigest() != digests.back()) {
      result.Fail() << "crash+recover+continue diverged from clean run "
                    << "(kill_at=" << kill_at << ")";
    }
  }
}

// ---- Store -------------------------------------------------------------------

/// Random tiny web-scale configuration: the same deterministic input stream
/// (ForEachWebScaleInput) feeds the streamed generator, the materialized
/// inputs of TryBuild and the set-based OracleAdjacency.
WebScaleConfig RandomStoreConfig(Rng& rng) {
  WebScaleConfig config;
  config.name = "fuzz-store";
  config.seed = 1 + static_cast<uint64_t>(rng.UniformInt(1'000'000));
  config.num_users = 1 + rng.UniformInt(6);
  config.num_items = 1 + rng.UniformInt(8);
  config.num_entities = 1 + rng.UniformInt(8);  // ValidateWebScaleConfig: >= 1
  config.num_kg_relations = 1 + rng.UniformInt(4);
  config.interactions_per_user = rng.UniformInt(5);  // 0 = isolated users
  config.num_kg_triplets = rng.UniformInt(24);
  config.item_popularity_exponent = rng.Uniform(0.0, 1.2);
  config.entity_popularity_exponent = rng.Uniform(0.0, 1.2);
  return config;
}

void StoreCase(uint64_t case_seed, CaseResult& result) {
  Rng rng(case_seed);
  ScopedFiniteChecks finite_checks;
  const WebScaleConfig config = RandomStoreConfig(rng);

  // Oracle: the generator's exact logical inputs, laid out through a set.
  std::vector<std::array<int64_t, 2>> interactions;
  std::vector<std::array<int64_t, 3>> kg_triplets;
  MaterializeWebScaleInputs(config, &interactions, &kg_triplets);
  const OracleAdjacency oracle(config.num_users, config.num_items,
                               config.num_kg_nodes(), config.num_kg_relations,
                               interactions, kg_triplets);

  // Subjects: the streamed two-pass assembly after a KUCSTOR1 roundtrip
  // through the in-memory filesystem on a randomly chosen load path, and
  // the in-memory TryBuild of the materialized inputs.
  InMemoryFileSystem fs;
  const std::string path = "/fuzz/store.kucstor";
  Ckg generated;
  const Status gen = GenerateWebScaleContainer(fs, path, config, &generated);
  if (!gen.ok()) {
    result.Fail() << "generate: " << gen.message();
    return;
  }
  StoreLoadOptions load_options;
  load_options.use_mmap = rng.Bernoulli(0.5);
  load_options.verify_checksums = rng.Bernoulli(0.5);
  Ckg loaded;
  StoreLoadStats stats;
  const Status load =
      LoadCkgContainer(fs, path, load_options, &loaded, &stats);
  if (!load.ok()) {
    result.Fail() << "load: " << load.message();
    return;
  }
  const Status topology = loaded.ValidateTopology();
  if (!topology.ok()) {
    result.Fail() << "topology: " << topology.message();
    return;
  }
  Ckg in_memory;
  const Status build = Ckg::TryBuild(
      config.num_users, config.num_items, config.num_kg_nodes(),
      config.num_kg_relations, interactions, kg_triplets, {}, &in_memory);
  if (!build.ok()) {
    result.Fail() << "TryBuild: " << build.message();
    return;
  }

  // Full structural equality against the oracle: every scalar, every
  // adjacency row (relation and destination, in order).
  for (const auto& [name, diff] :
       {std::pair<const char*, std::string>{
            "container", AdjacencyDifference(loaded, oracle)},
        {"TryBuild", AdjacencyDifference(in_memory, oracle)}}) {
    if (!diff.empty()) {
      result.Fail() << name << " graph vs OracleAdjacency: " << diff;
      return;
    }
  }

  // Bitwise PPR agreement between the container-backed graph and the
  // in-memory one.
  const int64_t source = rng.UniformInt(in_memory.num_nodes());
  const real_t alpha = rng.Uniform(0.05, 0.95);
  const real_t epsilon = std::pow(10.0, -(3.0 + rng.Uniform() * 4.0));
  const auto push_loaded = PprForwardPush(loaded, source, alpha, epsilon);
  const auto push_memory = PprForwardPush(in_memory, source, alpha, epsilon);
  if (push_loaded.size() != push_memory.size()) {
    result.Fail() << "ppr support: container=" << push_loaded.size()
                  << " in-memory=" << push_memory.size() << " (source="
                  << source << " alpha=" << alpha << " eps=" << epsilon << ")";
    return;
  }
  for (const auto& [node, value] : push_memory) {
    const auto it = push_loaded.find(node);
    if (it == push_loaded.end() || UlpDistance(it->second, value) != 0) {
      result.Fail() << "ppr estimate at node " << node << ": container="
                    << (it == push_loaded.end() ? 0.0 : it->second)
                    << " in-memory=" << value << " (source=" << source
                    << " alpha=" << alpha << " eps=" << epsilon << ")";
      return;
    }
  }

  // End-to-end serve equality on a subset of cases (full model stacks are
  // the expensive part): identically-seeded Kucnet + RecServer over the
  // container-backed and the in-memory graph must produce identical
  // responses.
  if (case_seed % 4 != 0) return;
  Dataset dataset;
  dataset.name = config.name;
  dataset.num_users = config.num_users;
  dataset.num_items = config.num_items;
  dataset.num_kg_nodes = config.num_kg_nodes();
  dataset.num_kg_relations = config.num_kg_relations;
  dataset.train = interactions;
  dataset.kg = kg_triplets;

  const PprTable ppr_memory = PprTable::Compute(in_memory);
  const PprTable ppr_loaded = PprTable::Compute(loaded);

  KucnetOptions model_opts;
  model_opts.hidden_dim = 8;
  model_opts.attention_dim = 3;
  model_opts.depth = 2;
  model_opts.sample_k = 8;
  Kucnet model_memory(&dataset, &in_memory, &ppr_memory, model_opts);
  Kucnet model_loaded(&dataset, &loaded, &ppr_loaded, model_opts);

  RecServerOptions server_opts;
  server_opts.num_workers = 0;  // ServeSync only: strictly sequential
  RecServer server_memory(&model_memory, &dataset, &in_memory, &ppr_memory,
                          server_opts);
  RecServer server_loaded(&model_loaded, &dataset, &loaded, &ppr_loaded,
                           server_opts);

  const int64_t top_n = 1 + rng.UniformInt(10);
  for (int64_t user = 0; user < config.num_users; ++user) {
    const RecResponse a = server_memory.ServeSync({user, top_n, 0});
    const RecResponse b = server_loaded.ServeSync({user, top_n, 0});
    if (a.status != b.status || a.tier != b.tier ||
        a.degraded != b.degraded || a.items.size() != b.items.size()) {
      result.Fail() << "serve response shape for user " << user
                    << ": in-memory(status=" << static_cast<int>(a.status)
                    << " items=" << a.items.size() << ") container(status="
                    << static_cast<int>(b.status) << " items="
                    << b.items.size() << ")";
      return;
    }
    for (size_t k = 0; k < a.items.size(); ++k) {
      if (a.items[k].item != b.items[k].item ||
          UlpDistance(a.items[k].score, b.items[k].score) != 0) {
        result.Fail() << "serve item " << k << " for user " << user
                      << ": in-memory=(" << a.items[k].item << ","
                      << a.items[k].score << ") container=(" << b.items[k].item
                      << "," << b.items[k].score << ")";
        return;
      }
    }
  }
}

}  // namespace

FuzzReport FuzzTensor(const FuzzOptions& options) {
  return RunCases("tensor", options, TensorCase);
}

FuzzReport FuzzPpr(const FuzzOptions& options) {
  return RunCases("ppr", options, PprCase);
}

FuzzReport FuzzRanking(const FuzzOptions& options) {
  return RunCases("ranking", options, RankingCase);
}

FuzzReport FuzzServe(const FuzzOptions& options) {
  ServeFuzzContext ctx;
  return RunCases("serve", options,
                  [&ctx](uint64_t seed, CaseResult& result) {
                    ServeCase(ctx, seed, result);
                    // Every 4th case also differentials the PR 10 batching
                    // seams (spinning up a pipelined server is ~10x the cost
                    // of a sequential replay).
                    if (!result.failed() && seed % 4 == 0) {
                      BatchedServeCase(ctx, seed, result);
                    }
                  });
}

FuzzReport FuzzFleet(const FuzzOptions& options) {
  FleetFuzzContext ctx;
  return RunCases("fleet", options,
                  [&ctx](uint64_t seed, CaseResult& result) {
                    FleetCase(ctx, seed, result);
                  });
}

FuzzReport FuzzStream(const FuzzOptions& options) {
  return RunCases("stream", options, StreamCase);
}

FuzzReport FuzzStore(const FuzzOptions& options) {
  return RunCases("store", options, StoreCase);
}

FuzzReport FuzzKucnet(const FuzzOptions& options) {
  KucnetFuzzContext ctx;
  return RunCases("kucnet", options,
                  [&ctx](uint64_t seed, CaseResult& result) {
                    KucnetCase(ctx, seed, result);
                  });
}

FuzzReport FuzzKucnetGrad(const FuzzOptions& options) {
  KucnetFuzzContext ctx;
  return RunCases("kucnet_grad", options,
                  [&ctx](uint64_t seed, CaseResult& result) {
                    KucnetGradCase(ctx, seed, result);
                  });
}

FuzzReport FuzzSubsystem(const std::string& name, const FuzzOptions& options) {
  if (name == "tensor") return FuzzTensor(options);
  if (name == "ppr") return FuzzPpr(options);
  if (name == "ranking" || name == "topn") return FuzzRanking(options);
  if (name == "serve") return FuzzServe(options);
  if (name == "fleet") return FuzzFleet(options);
  if (name == "stream") return FuzzStream(options);
  if (name == "store") return FuzzStore(options);
  if (name == "kucnet") return FuzzKucnet(options);
  if (name == "kucnet_grad") return FuzzKucnetGrad(options);
  KUC_CHECK(false) << "unknown fuzz subsystem '" << name
                   << "' (want tensor|ppr|ranking|serve|fleet|stream|store|"
                      "kucnet|kucnet_grad)";
  return FuzzReport();
}

}  // namespace testing
}  // namespace kucnet
