// Per-layer replay for traced runs: after the timed window, the window's
// users go one at a time through the public entry points of each layer, so
// a request's cost splits into extraction, graph build, forward, PPR push
// and ranking, plus the tensor kernels at the shape the forward runs them.

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>

#include "harness.h"
#include "graph/compgraph.h"
#include "tensor/matrix.h"
#include "tensor/tape.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using kucnet::ExecContext;
using kucnet::KucnetForward;
using kucnet::Matrix;

struct LayerShape {
  int64_t edges = 0;
  int64_t src_rows = 0;
  int64_t dst_rows = 0;
};

double MsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) * 1e-6; }

/// Median wall time of `reps` calls of `op`, each after an untimed `prep`.
template <typename Prep, typename Op>
double MedianMs(int reps, Prep&& prep, Op&& op) {
  std::vector<double> ms;
  for (int k = 0; k < reps; ++k) {
    auto state = prep();
    const int64_t t0 = NowNs();
    op(state);
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

/// The tensor kernels of one message-passing layer at `shape`: the message
/// matmul, the source-row gather and the destination segment sum. GB/s
/// counts the bytes each kernel must touch by tensor size (read + write +
/// index), not measured memory traffic.
void ReplayKernels(Report* report, const LayerShape& shape, int64_t d) {
  kucnet::Rng rng(7);
  const Matrix msg = Matrix::RandomNormal(shape.edges, d, 1.0, rng);
  const Matrix w = Matrix::RandomNormal(d, d, 1.0, rng);
  const Matrix src = Matrix::RandomNormal(shape.src_rows, d, 1.0, rng);
  std::vector<int64_t> gather_idx(shape.edges);
  std::vector<int64_t> segment(shape.edges);
  for (int64_t e = 0; e < shape.edges; ++e) {
    gather_idx[e] = rng.UniformInt(shape.src_rows);
    segment[e] = rng.UniformInt(shape.dst_rows);
  }
  std::sort(segment.begin(), segment.end());
  constexpr int kReps = 51;
  const double e = static_cast<double>(shape.edges);
  const double dd = static_cast<double>(d);

  const double matmul_ms = MedianMs(
      kReps, [] { return 0; },
      [&](int) {
        const Matrix out = kucnet::MatMul(msg, w);
        (void)out;
      });
  const auto tape_input = [](const Matrix& m, const std::vector<int64_t>& idx) {
    auto tape = std::make_unique<kucnet::Tape>();
    const kucnet::Var x = tape->Constant(m);
    return std::make_tuple(std::move(tape), x, idx);
  };
  const double gather_ms = MedianMs(
      kReps, [&] { return tape_input(src, gather_idx); },
      [&](auto& s) {
        std::get<0>(s)->Gather(std::get<1>(s), std::move(std::get<2>(s)));
      });
  const double segment_ms = MedianMs(
      kReps, [&] { return tape_input(msg, segment); },
      [&](auto& s) {
        std::get<0>(s)->SegmentSum(std::get<1>(s), std::move(std::get<2>(s)),
                                   shape.dst_rows);
      });
  const double gather_bytes = 2.0 * e * dd * 8.0 + e * 8.0;
  const double segment_bytes =
      e * dd * 8.0 + static_cast<double>(shape.dst_rows) * dd * 8.0 + e * 8.0;
  std::printf("kernels at layer shape edges=%lld src_rows=%lld dst_rows=%lld "
              "d=%lld: matmul %.4f ms, gather %.4f ms, segment_sum %.4f ms\n",
              static_cast<long long>(shape.edges),
              static_cast<long long>(shape.src_rows),
              static_cast<long long>(shape.dst_rows),
              static_cast<long long>(d), matmul_ms, gather_ms, segment_ms);
  report->Put("tensor.matmul_gflops", 2.0 * e * dd * dd / (matmul_ms * 1e6),
              kReps);
  report->Put("tensor.gather_gbps", gather_bytes / (gather_ms * 1e6), kReps);
  report->Put("tensor.segment_sum_gbps", segment_bytes / (segment_ms * 1e6),
              kReps);
}

/// Tape::Backward of one user's BuildLoss, and the Adam step that follows.
/// Positives are the user's training items and negatives other items, both
/// taken from the final layer of the user's graph so that BuildLoss finds
/// them reachable.
void ReplayBackward(Report* report, Deployment* d,
                    const std::vector<int64_t>& users,
                    const std::vector<KucnetForward>& graphs) {
  std::vector<double> backward_ms, adam_ms;
  kucnet::Kucnet& model = *d->model;
  const kucnet::GraphRef graph = d->graph();
  for (size_t k = 0; k < users.size(); ++k) {
    const int64_t u = users[k];
    const std::vector<int64_t>& train = d->train_items[u];
    std::vector<int64_t> pos, neg;
    const auto& layers = graphs[k].graph.layers;
    if (layers.empty()) continue;
    for (const int64_t node : layers.back().nodes) {
      if (!graph.IsItem(node)) continue;
      const int64_t item = graph.ItemOfNode(node);
      auto& side = std::binary_search(train.begin(), train.end(), item) ? pos
                                                                        : neg;
      if (side.size() < 4) side.push_back(item);
    }
    const size_t pairs = std::min(pos.size(), neg.size());
    if (pairs == 0) continue;
    pos.resize(pairs);
    neg.resize(pairs);
    kucnet::Tape tape;
    const kucnet::Var loss = model.BuildLoss(tape, u, pos, neg);
    if (!loss.valid()) continue;
    int64_t t0 = NowNs();
    tape.Backward(loss);
    backward_ms.push_back(MsSince(t0));
    t0 = NowNs();
    model.MutableOptimizer()->Step(model.Params());
    adam_ms.push_back(MsSince(t0));
  }
  report->Put("tensor.backward_ms.p50", Median(backward_ms),
              static_cast<int64_t>(backward_ms.size()));
  report->Put("tensor.adam_step_ms.p50", Median(adam_ms),
              static_cast<int64_t>(adam_ms.size()));
}

}  // namespace

std::map<int64_t, UserTiming> ReplayLayers(const Run& run, Deployment* d,
                                           const std::vector<int64_t>& users_in,
                                           int64_t max_users) {
  Tracer* tracer = run.tracer;
  Report& report = *run.report;
  std::vector<int64_t> users;
  const int64_t n = static_cast<int64_t>(users_in.size());
  const int64_t take = std::min(n, max_users);
  for (int64_t k = 0; k < take; ++k) users.push_back(users_in[k * n / take]);

  const kucnet::Kucnet& model = *d->model;
  const kucnet::KucnetOptions& opt = model.options();
  kucnet::CompGraphOptions build_opt;
  build_opt.depth = opt.depth;
  build_opt.max_edges_per_node = opt.sample_k;
  build_opt.prune = opt.prune;
  kucnet::CompGraphBuilder builder(d->graph(), build_opt);
  kucnet::RecServerOptions sync_opt;
  sync_opt.num_workers = 0;
  sync_opt.default_deadline_micros = 60'000'000;
  kucnet::RecServer sync_server(d->model.get(), &d->dataset, d->graph(),
                                &d->ppr, sync_opt);
  const bool replay_push = !report.Has("ppr.push_ms.p50");

  std::map<int64_t, UserTiming> timings;
  std::vector<double> extract_ms, build_ms, forward_ms, rank_ms, push_ms,
      edges, entries;
  double forward_ns = 0.0;
  double forward_edges = 0.0;
  std::vector<KucnetForward> extracted;  // graphs only, forward not yet run
  std::vector<int64_t> extracted_users;
  std::vector<LayerShape> shapes;
  for (const int64_t u : users) {
    ScopedSpan root(tracer, "replay.user", u);
    // The whole request first, while this user's graph region is as cold as
    // it is for a request in the window; then its parts.
    int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "serve.sync");
      (void)sync_server.ServeSync({u, 0, 60'000'000});
    }
    const double sync = MsSince(t0);
    KucnetForward f;
    t0 = NowNs();
    {
      ScopedSpan span(tracer, "core.extract");
      if (!model.TryExtractGraph(u, ExecContext(), &f).ok()) {
        report.Fail("replay extraction failed for user " + std::to_string(u));
        continue;
      }
    }
    const double extract = MsSince(t0);
    t0 = NowNs();
    {
      ScopedSpan span(tracer, "graph.build");
      const kucnet::NodeScoreFn score = d->ppr.ScoreFn(u);
      kucnet::Rng rng(opt.seed ^ (0x9e37 + static_cast<uint64_t>(u)));
      kucnet::UserCompGraph g;
      (void)builder.TryBuild(d->graph().UserNode(u), &score, &rng, {},
                             ExecContext(), &g);
    }
    build_ms.push_back(MsSince(t0));
    extracted.emplace_back();
    extracted.back().graph = f.graph;
    extracted_users.push_back(u);
    t0 = NowNs();
    {
      ScopedSpan span(tracer, "core.forward");
      (void)model.TryForwardOnGraph(ExecContext(), &f);
    }
    const double forward = MsSince(t0);
    const int64_t total_edges = f.graph.TotalEdges();
    int64_t prev_rows = 1;
    for (const kucnet::CompLayer& layer : f.graph.layers) {
      const auto rows = static_cast<int64_t>(layer.nodes.size());
      if (layer.num_edges() > 0) {
        shapes.push_back({layer.num_edges(), prev_rows, rows});
      }
      prev_rows = rows;
    }
    if (replay_push) {
      t0 = NowNs();
      ScopedSpan span(tracer, "ppr.push");
      const size_t size = d->graph().Visit([&](const auto& g) {
        return kucnet::PprForwardPush(g, g.UserNode(u)).size();
      });
      push_ms.push_back(MsSince(t0));
      entries.push_back(static_cast<double>(size));
    }
    rank_ms.push_back(sync - extract - forward);
    extract_ms.push_back(extract);
    forward_ms.push_back(forward);
    edges.push_back(static_cast<double>(total_edges));
    forward_ns += forward * 1e6;
    forward_edges += static_cast<double>(total_edges);
    timings[u] = {extract, forward};
  }

  // Batched forwards of already-extracted graphs, per user.
  for (const int64_t batch : {4, 8}) {
    std::vector<double> per_user_ms;
    for (size_t start = 0; start + batch <= extracted.size(); start += batch) {
      std::vector<KucnetForward> outs(extracted.begin() + start,
                                      extracted.begin() + start + batch);
      std::vector<kucnet::KucnetForwardWork> work(batch);
      for (int64_t k = 0; k < batch; ++k) {
        work[k].user = extracted_users[start + k];
        work[k].out = &outs[k];
      }
      ScopedSpan span(tracer, "core.forward_many", batch);
      const int64_t t0 = NowNs();
      model.TryForwardMany(&work, /*graphs_extracted=*/true);
      per_user_ms.push_back(MsSince(t0) / static_cast<double>(batch));
    }
    report.Put(batch == 4 ? "core.forward_per_user_ms.b4"
                          : "core.forward_per_user_ms.b8",
               Median(per_user_ms), static_cast<int64_t>(per_user_ms.size()));
  }

  const Summary extract = Summarize(extract_ms);
  const auto count = static_cast<int64_t>(extract_ms.size());
  report.Put("core.extract_ms.p50", extract.p50, extract.n);
  report.Put("core.extract_ms.p90", extract.p90, extract.n);
  report.Put("core.forward_ms.p50", Median(forward_ms), count);
  report.Put("core.graph_edges.p50", Median(edges), count);
  report.Put("core.forward_ns_per_edge",
             forward_ns / std::max(forward_edges, 1.0), count);
  report.Put("graph.build_ms.p50", Median(build_ms), count);
  report.Put("serve.rank_ms.p50", Median(rank_ms), count);
  if (replay_push) {
    double sum = 0.0;
    for (const double e : entries) sum += e;
    report.Put("ppr.push_ms.p50", Median(push_ms),
               static_cast<int64_t>(push_ms.size()));
    report.Put("ppr.vector_entries.mean",
               sum / std::max<double>(1.0, static_cast<double>(entries.size())),
               static_cast<int64_t>(entries.size()));
  }
  if (!shapes.empty()) {
    std::sort(shapes.begin(), shapes.end(),
              [](const LayerShape& a, const LayerShape& b) {
                return a.edges < b.edges;
              });
    ReplayKernels(&report, shapes[shapes.size() / 2], opt.hidden_dim);
  }
  ReplayBackward(&report, d, extracted_users, extracted);
  return timings;
}

}  // namespace perfbench
