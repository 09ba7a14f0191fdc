// google-benchmark microbenchmarks for the kernels everything else is built
// on: dense matmul, the GNN gather/segment-sum pair, PPR, BFS/subgraph
// extraction, and a full KUCNet forward pass; plus the cost of the
// observability layer: a counter add and a span enter/exit per call, and a
// full ServeSync, each with obs::SetEnabled off (/0) and on (/1).
//
// Invoked with --threads_compare [out.json [threads]], the binary instead
// times each threaded kernel serially (1-worker pool) and with a multi-worker
// pool, verifies the two produce bitwise-identical results, and writes
// BENCH_kernels.json through bench::WriteBenchJson, one row per kernel and
// pool size (kernel, size, threads, ns_per_op, speedup, gflops, bytes_per_s,
// simd, cpu). Matmul rows cover the square acceptance shape, an odd
// non-tile-multiple shape, the forced-scalar micro-kernel, the
// re-associated fast mode, and one user's forward shapes (a message layer
// and the one-column readout); a shape below kMatMulParallelFlops runs
// serially on any pool, so it gets its 1-worker row only, as does the
// segment sum, whose scatter-add always runs on the calling thread. Inputs
// are built outside the timed call.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "core/kucnet.h"
#include "data/synthetic.h"
#include "graph/compgraph.h"
#include "graph/subgraph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ppr/ppr.h"
#include "serve/rec_server.h"
#include "tensor/adam.h"
#include "tensor/matrix.h"
#include "tensor/simd.h"
#include "tensor/tape.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace kucnet {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Matrix a = Matrix::RandomNormal(n, n, 1.0, rng);
  Matrix b = Matrix::RandomNormal(n, n, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_GatherSegmentSum(benchmark::State& state) {
  const int64_t edges = state.range(0);
  const int64_t nodes = edges / 8;
  const int64_t dim = 32;
  Rng rng(2);
  Matrix h = Matrix::RandomNormal(nodes, dim, 1.0, rng);
  std::vector<int64_t> src(edges), dst(edges);
  for (int64_t e = 0; e < edges; ++e) {
    src[e] = rng.UniformInt(nodes);
    dst[e] = rng.UniformInt(nodes);
  }
  for (auto _ : state) {
    Tape tape;
    Var x = tape.Constant(h);
    Var gathered = tape.Gather(x, src);
    benchmark::DoNotOptimize(tape.SegmentSum(gathered, dst, nodes));
  }
  state.SetItemsProcessed(state.iterations() * edges * dim);
}
BENCHMARK(BM_GatherSegmentSum)->Arg(1 << 12)->Arg(1 << 15);

struct GraphFixture {
  GraphFixture()
      : dataset([] {
          Rng rng(1);
          return TraditionalSplit(
              GenerateSynthetic(SynthLastFmConfig()).raw, 0.2, rng);
        }()),
        ckg(dataset.BuildCkg()),
        ppr(PprTable::Compute(ckg)) {}
  Dataset dataset;
  Ckg ckg;
  PprTable ppr;
};

GraphFixture& SharedGraph() {
  static GraphFixture* fixture = new GraphFixture;
  return *fixture;
}

void BM_PprForwardPush(benchmark::State& state) {
  const GraphFixture& f = SharedGraph();
  int64_t user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PprForwardPush(f.ckg, f.ckg.UserNode(user % f.ckg.num_users())));
    ++user;
  }
}
BENCHMARK(BM_PprForwardPush);

void BM_BfsDistances(benchmark::State& state) {
  const GraphFixture& f = SharedGraph();
  int64_t user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BfsDistances(f.ckg, f.ckg.UserNode(user % f.ckg.num_users()), 3));
    ++user;
  }
}
BENCHMARK(BM_BfsDistances);

void BM_BuildUserCompGraph(benchmark::State& state) {
  const GraphFixture& f = SharedGraph();
  CompGraphOptions opts;
  opts.depth = 3;
  opts.max_edges_per_node = state.range(0);
  opts.prune = opts.max_edges_per_node > 0 ? PruneMode::kPpr : PruneMode::kNone;
  CompGraphBuilder builder(&f.ckg, opts);
  int64_t user = 0;
  for (auto _ : state) {
    const int64_t u = user % f.ckg.num_users();
    const NodeScoreFn score = f.ppr.ScoreFn(u);
    benchmark::DoNotOptimize(
        builder.Build(f.ckg.UserNode(u),
                      opts.prune == PruneMode::kPpr ? &score : nullptr));
    ++user;
  }
}
BENCHMARK(BM_BuildUserCompGraph)->Arg(0)->Arg(30);

void BM_KucnetForward(benchmark::State& state) {
  const GraphFixture& f = SharedGraph();
  KucnetOptions opts;
  opts.sample_k = state.range(0);
  static Kucnet* model = nullptr;
  // One model per K value would leak across Args; rebuild when K changes.
  static int64_t current_k = -1;
  if (current_k != opts.sample_k) {
    delete model;
    model = new Kucnet(&f.dataset, &f.ckg, &f.ppr, opts);
    current_k = opts.sample_k;
  }
  int64_t user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->ScoreItems(user % f.ckg.num_users()));
    ++user;
  }
}
BENCHMARK(BM_KucnetForward)->Arg(10)->Arg(30);

// ---- Observability cost: Arg(0) = obs off, Arg(1) = on ----------------------

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::SetEnabled(state.range(0) != 0);
  for (auto _ : state) {
    KUC_OBS_COUNT("bench.obs.counter_probe", 1);
  }
  obs::SetEnabled(false);
}
BENCHMARK(BM_ObsCounterAdd)->Arg(0)->Arg(1);

void BM_ObsSpan(benchmark::State& state) {
  obs::SetEnabled(state.range(0) != 0);
  for (auto _ : state) {
    KUC_TRACE_SPAN("bench.obs.span_probe");
  }
  obs::SetEnabled(false);
}
BENCHMARK(BM_ObsSpan)->Arg(0)->Arg(1);

/// End-to-end inline serving (the full tier chain, K=30, depth 3, untrained
/// weights) over synth-lastfm users, so the obs-on row less the obs-off row
/// is what the instrumentation costs a request.
void BM_ServeSync(benchmark::State& state) {
  const GraphFixture& f = SharedGraph();
  KucnetOptions model_opts;
  model_opts.sample_k = 30;
  model_opts.depth = 3;
  static Kucnet* model = new Kucnet(&f.dataset, &f.ckg, &f.ppr, model_opts);
  RecServerOptions opts;
  opts.num_workers = 0;
  opts.default_deadline_micros = 60'000'000;
  RecServer server(model, &f.dataset, &f.ckg, &f.ppr, opts);
  obs::SetEnabled(state.range(0) != 0);
  int64_t user = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.ServeSync({user % f.ckg.num_users()}));
    user += 7;
  }
  obs::SetEnabled(false);
}
BENCHMARK(BM_ServeSync)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// ---- Serial-vs-threaded comparison mode (--threads_compare) -----------------

/// Best-of-`reps` wall time of `fn(input)` in nanoseconds (steady_clock,
/// so the few-microsecond forward-shape rows resolve), after one warmup
/// run. Every run gets a fresh `input = setup()` built before the timer
/// starts, and whatever `fn` returns is destroyed after it stops, so only
/// the kernel call is timed.
template <typename Setup, typename Fn>
double BestNs(int reps, const Setup& setup, const Fn& fn) {
  double best = 0.0;
  for (int r = -1; r < reps; ++r) {  // r == -1 warms up
    auto input = setup();
    const auto start = std::chrono::steady_clock::now();
    const auto& result = fn(input);
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    benchmark::DoNotOptimize(result);
    if (r == 0 || (r > 0 && ns < best)) best = ns;
  }
  return best;
}

/// Known per-op work, for derived throughput columns. Either may be 0 when
/// the metric is not meaningful for a kernel (reported as 0 in the JSON).
struct OpWork {
  double flops = 0;  ///< arithmetic operations per op
  double bytes = 0;  ///< minimum memory traffic per op
};

/// Times `fn(setup())` under a 1-worker pool and a `threads`-worker pool
/// (BestNs: the setup is untimed), checks the returned matrices are bitwise
/// identical, and appends both rows with achieved GFLOP/s and bytes/s plus
/// the dispatched SIMD level and CPU model. With `threads` 1 it times and
/// appends the serial row only.
template <typename Setup, typename Fn>
void CompareKernel(const std::string& kernel, const std::string& size,
                   int threads, int reps, OpWork work, const Setup& setup,
                   const Fn& fn, std::vector<bench::JsonObject>* out) {
  auto result_of = [&] {
    auto input = setup();
    return Matrix(fn(input));
  };
  SetGlobalPoolThreads(1);
  const Matrix serial_result = result_of();
  const double serial_ns = BestNs(reps, setup, fn);
  const std::string simd = SimdLevelName(ActiveSimdLevel());
  const std::string& cpu = bench::CpuModelName();
  auto row = [&](int t, double ns, double speedup) {
    bench::JsonObject r;
    r.Str("kernel", kernel)
        .Str("size", size)
        .Int("threads", t)
        .Num("ns_per_op", ns)
        .Num("speedup", speedup)
        .Num("gflops", ns > 0 ? work.flops / ns : 0.0)
        .Num("bytes_per_s", ns > 0 ? work.bytes / (ns * 1e-9) : 0.0)
        .Str("simd", simd)
        .Str("cpu", cpu);
    out->push_back(r);
  };
  row(1, serial_ns, 1.0);
  const std::string rate =
      work.flops > 0
          ? " @ " + bench::Fmt(work.flops / serial_ns, 1) + " GFLOP/s"
          : "";
  if (threads == 1) {
    std::printf("%-16s %-14s 1 thread: %10.0f ns   (serial on any pool)   "
                "%s%s\n",
                kernel.c_str(), size.c_str(), serial_ns, simd.c_str(),
                rate.c_str());
    return;
  }
  SetGlobalPoolThreads(threads);
  const Matrix threaded_result = result_of();
  const double threaded_ns = BestNs(reps, setup, fn);
  KUC_CHECK(serial_result.Equals(threaded_result))
      << kernel << " result differs between 1 and " << threads << " threads";
  row(threads, threaded_ns, threaded_ns > 0 ? serial_ns / threaded_ns : 0.0);
  std::printf("%-16s %-14s 1 thread: %10.0f ns   %d threads: %10.0f ns   "
              "speedup %.2fx   %s%s\n",
              kernel.c_str(), size.c_str(), serial_ns, threads, threaded_ns,
              threaded_ns > 0 ? serial_ns / threaded_ns : 0.0, simd.c_str(),
              rate.c_str());
}

/// CompareKernel for a kernel without per-run input: `fn()` is timed.
template <typename Fn>
void CompareKernel(const std::string& kernel, const std::string& size,
                   int threads, int reps, OpWork work, const Fn& fn,
                   std::vector<bench::JsonObject>* out) {
  CompareKernel(
      kernel, size, threads, reps, work, [] { return 0; },
      [&fn](int) { return fn(); }, out);
}

/// The pool size a matmul row compares: `threads`, or 1 for a product
/// below kMatMulParallelFlops, which runs the same serial code on any pool.
int MatMulThreads(int64_t multiply_adds, int threads) {
  return multiply_adds >= kMatMulParallelFlops ? threads : 1;
}

/// A tape holding one constant input and an index vector to move into the
/// op under test: the per-run input of the gather and segment-sum rows.
struct TapeInput {
  std::unique_ptr<Tape> tape;
  Var x;
  std::vector<int64_t> index;
};

TapeInput MakeTapeInput(const Matrix& value,
                        const std::vector<int64_t>& index) {
  TapeInput in;
  in.tape = std::make_unique<Tape>();
  in.x = in.tape->Constant(value);
  in.index = index;
  return in;
}

int RunThreadsCompare(const std::string& json_path, int threads) {
  std::printf("kernel comparison: 1 vs %d pool workers "
              "(hardware_concurrency=%u)\n",
              threads, std::thread::hardware_concurrency());
  std::vector<bench::JsonObject> results;
  Rng rng(7);

  {  // 512x512 dense matmul (acceptance kernel #1).
    const int64_t n = 512;
    Matrix a = Matrix::RandomNormal(n, n, 1.0, rng);
    Matrix b = Matrix::RandomNormal(n, n, 1.0, rng);
    const OpWork w{2.0 * n * n * n, 4.0 * n * n * sizeof(real_t)};
    CompareKernel("matmul", "512x512x512", threads, 5, w,
                  [&] { return MatMul(a, b); }, &results);
    CompareKernel("matmul_tA", "512x512x512", threads, 5, w,
                  [&] { return MatMulTransposedA(a, b); }, &results);
    CompareKernel("matmul_tB", "512x512x512", threads, 5, w,
                  [&] { return MatMulTransposedB(a, b); }, &results);
    {  // Same problem pinned to the scalar micro-kernel: the vector payoff.
      ScopedSimdLevel scalar_only(SimdLevel::kScalar);
      CompareKernel("matmul_scalar", "512x512x512", threads, 5, w,
                    [&] { return MatMul(a, b); }, &results);
    }
    {  // Re-associated fast mode (FMA where the ISA has it).
      ScopedKernelMode fast(KernelMode::kFast);
      CompareKernel("matmul_fast", "512x512x512", threads, 5, w,
                    [&] { return MatMul(a, b); }, &results);
    }
  }

  {  // Odd, non-tile-multiple shape: exercises every edge-tile path (M, N,
     // and K all indivisible by the register tile or panel depth).
    const int64_t m = 129, k = 67, n = 255;
    Matrix a = Matrix::RandomNormal(m, k, 1.0, rng);
    Matrix b = Matrix::RandomNormal(k, n, 1.0, rng);
    const OpWork w{2.0 * m * n * k,
                   static_cast<double>(m * k + k * n + 2 * m * n) *
                       sizeof(real_t)};
    const int t = MatMulThreads(m * n * k, threads);
    CompareKernel("matmul", "129x67x255", t, 50, w,
                  [&] { return MatMul(a, b); }, &results);
    Matrix at = Transpose(a);
    CompareKernel("matmul_tA", "129x67x255", t, 50, w,
                  [&] { return MatMulTransposedA(at, b); }, &results);
    Matrix bt = Transpose(b);
    CompareKernel("matmul_tB", "129x67x255", t, 50, w,
                  [&] { return MatMulTransposedB(a, bt); }, &results);
  }

  {  // One user's forward products on synth-lastfm (depth 3, K = 30): the
     // median layer's message matmul and the readout.
    const int64_t m = 350, k = 32, n = 32;
    Matrix a = Matrix::RandomNormal(m, k, 1.0, rng);
    Matrix b = Matrix::RandomNormal(k, n, 1.0, rng);
    CompareKernel("matmul", "350x32x32", MatMulThreads(m * n * k, threads),
                  200,
                  OpWork{2.0 * m * n * k,
                         static_cast<double>(m * k + k * n + m * n) *
                             sizeof(real_t)},
                  [&] { return MatMul(a, b); }, &results);
    const int64_t rows = 460;
    Matrix h = Matrix::RandomNormal(rows, k, 1.0, rng);
    Matrix readout = Matrix::RandomNormal(k, 1, 1.0, rng);
    CompareKernel("matmul", "460x32x1", MatMulThreads(rows * k, threads), 200,
                  OpWork{2.0 * rows * k,
                         static_cast<double>(rows * k + k + rows) *
                             sizeof(real_t)},
                  [&] { return MatMul(h, readout); }, &results);
  }

  {  // 10^6-edge segment-sum, dim 32 (acceptance kernel #2).
    const int64_t edges = 1000000;
    const int64_t nodes = edges / 8;
    const int64_t dim = 32;
    Matrix h = Matrix::RandomNormal(edges, dim, 1.0, rng);
    std::vector<int64_t> seg(edges);
    for (int64_t e = 0; e < edges; ++e) seg[e] = rng.UniformInt(nodes);
    const OpWork seg_work{static_cast<double>(edges * dim),
                          static_cast<double>((2 * edges + nodes) * dim *
                                                  sizeof(real_t) +
                                              edges * sizeof(int64_t))};
    // The scatter-add runs on the calling thread at any pool size, so the
    // segment sum gets its 1-worker row only.
    CompareKernel(
        "segment_sum", "1Mx32", 1, 5, seg_work,
        [&] { return MakeTapeInput(h, seg); },
        [&](TapeInput& in) -> const Matrix& {
          return in.tape->value(
              in.tape->SegmentSum(in.x, std::move(in.index), nodes));
        },
        &results);
    std::vector<int64_t> idx(edges);
    for (int64_t e = 0; e < edges; ++e) idx[e] = rng.UniformInt(edges);
    const OpWork gather_work{
        0, static_cast<double>(2 * edges * dim * sizeof(real_t) +
                               edges * sizeof(int64_t))};
    CompareKernel(
        "gather", "1Mx32", threads, 5, gather_work,
        [&] { return MakeTapeInput(h, idx); },
        [&](TapeInput& in) -> const Matrix& {
          return in.tape->value(in.tape->Gather(in.x, std::move(in.index)));
        },
        &results);
  }

  {  // Dense Adam step over a 100k x 32 table.
    const int64_t rows = 100000, dim = 32;
    Matrix init = Matrix::RandomNormal(rows, dim, 0.1, rng);
    Matrix grad = Matrix::RandomNormal(rows, dim, 0.01, rng);
    // ~12 flops per element (moment updates, bias correction, write).
    CompareKernel("adam_step", "100kx32", threads, 5,
                  OpWork{12.0 * rows * dim,
                         static_cast<double>(5 * rows * dim * sizeof(real_t))},
                  [&] {
                    Parameter p("table", init);
                    p.AccumulateDense(grad);
                    Adam adam{AdamOptions()};
                    std::vector<Parameter*> params = {&p};
                    adam.Step(params);
                    return p.value();
                  },
                  &results);
  }

  {  // End-to-end: one batched KUCNet training epoch on synth-lastfm.
    SetGlobalPoolThreads(threads);
    bench::Workload w =
        bench::MakeWorkload("synth-lastfm", SplitKind::kTraditional);
    CompareKernel("train_epoch", "synth-lastfm", threads, 2, OpWork{},
                  [&] {
                    Kucnet model(&w.dataset, &w.ckg, &w.ppr, KucnetOptions());
                    Rng epoch_rng(11);
                    const double loss = model.TrainEpoch(epoch_rng);
                    Matrix out(1, 1);
                    out.at(0, 0) = loss;
                    return out;
                  },
                  &results);
  }

  bench::WriteBenchJson(json_path, results);
  std::printf("wrote %zu rows to %s\n", results.size(), json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace kucnet

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads_compare") == 0) {
      const std::string path =
          i + 1 < argc ? argv[i + 1] : "BENCH_kernels.json";
      const int threads = i + 2 < argc ? std::atoi(argv[i + 2])
                                       : kucnet::DefaultThreadCount();
      return kucnet::RunThreadsCompare(path, threads > 1 ? threads : 4);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
