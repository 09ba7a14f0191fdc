// Reproduces Figure 6: inference cost of the three computation strategies.
//   KUCNet-UI        — score every (u, i) pair on its own U-I computation
//                      graph (Eq. 8): |I| separate message passings.
//   KUCNet-w.o.-PPR  — one unpruned user-centric computation graph per user
//                      (Proposition 1): all items scored at once.
//   KUCNet           — the same, PPR-pruned to top-K edges per node.
// Shape to verify: edges and milliseconds drop by a large factor at each
// step (paper: per-pair graphs have millions of edges; user-centric cuts
// this dramatically; PPR pruning cuts it again).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/kucnet.h"
#include "util/clock.h"
#include "util/logging.h"

namespace kucnet::bench {
namespace {

void RunDataset(const std::string& config_name, int64_t sample_k) {
  Workload workload = MakeWorkload(config_name, SplitKind::kTraditional);
  std::printf("\n-- %s (K=%lld) --\n", config_name.c_str(),
              (long long)sample_k);
  const int64_t num_probe_users = 5;

  ModelContext ctx;
  ctx.dataset = &workload.dataset;
  ctx.ckg = &workload.ckg;
  ctx.ppr = &workload.ppr;

  // Pruned model (KUCNet) and unpruned model (KUCNet-w.o.-PPR) share
  // hyper-parameters; the per-pair strategy reuses the pruned model's
  // parameters via ScorePairOnUiGraph.
  ctx.kucnet.sample_k = sample_k;
  auto pruned = CreateModel("KUCNet", ctx);
  auto unpruned = CreateModel("KUCNet-w.o.-PPR", ctx);
  auto* pruned_kucnet = dynamic_cast<Kucnet*>(pruned.get());
  auto* unpruned_kucnet = dynamic_cast<Kucnet*>(unpruned.get());

  double ui_ms = 0, uc_ms = 0, ppr_ms = 0;
  double ui_edges = 0, uc_edges = 0, ppr_edges = 0;
  for (int64_t user = 0; user < num_probe_users; ++user) {
    {
      Stopwatch timer;
      int64_t edges = 0;
      for (int64_t item = 0; item < workload.dataset.num_items; ++item) {
        edges += pruned_kucnet->ScorePairOnUiGraph(user, item).second;
      }
      ui_ms += timer.Millis();
      ui_edges += static_cast<double>(edges);
    }
    {
      Stopwatch timer;
      KucnetForward fwd;
      const Status status =
          unpruned_kucnet->TryForward(user, ExecContext(), &fwd);
      uc_ms += timer.Millis();
      KUC_CHECK(status.ok()) << status.message();
      uc_edges += static_cast<double>(fwd.graph.TotalEdges());
    }
    {
      Stopwatch timer;
      KucnetForward fwd;
      const Status status =
          pruned_kucnet->TryForward(user, ExecContext(), &fwd);
      ppr_ms += timer.Millis();
      KUC_CHECK(status.ok()) << status.message();
      ppr_edges += static_cast<double>(fwd.graph.TotalEdges());
    }
  }
  const double n = static_cast<double>(num_probe_users);
  std::printf("%-20s %16s %16s\n", "strategy", "avg_ms_per_user",
              "avg_edges_per_user");
  std::printf("%-20s %16s %16s\n", "KUCNet-UI", Fmt(ui_ms / n, 2).c_str(),
              Fmt(ui_edges / n, 0).c_str());
  std::printf("%-20s %16s %16s\n", "KUCNet-w.o.-PPR",
              Fmt(uc_ms / n, 2).c_str(), Fmt(uc_edges / n, 0).c_str());
  std::printf("%-20s %16s %16s\n", "KUCNet", Fmt(ppr_ms / n, 2).c_str(),
              Fmt(ppr_edges / n, 0).c_str());
  std::printf("\nspeedups: UI->user-centric %sx (edges %sx), "
              "user-centric->PPR %sx (edges %sx)\n",
              Fmt(ui_ms / uc_ms, 1).c_str(), Fmt(ui_edges / uc_edges, 1).c_str(),
              Fmt(uc_ms / ppr_ms, 1).c_str(),
              Fmt(uc_edges / ppr_edges, 1).c_str());
}

void Main() {
  std::printf("Reproduction of Figure 6 (inference time and computation-"
              "graph size per user).\n");
  std::printf(
      "Shape to verify: per-pair U-I graphs cost far more than one "
      "user-centric graph; PPR pruning cuts the user-centric cost again "
      "(most visibly on the hub-heavy iFashion analogue).\n");
  RunDataset("synth-lastfm", /*sample_k=*/10);
  RunDataset("synth-ifashion", /*sample_k=*/10);
}

}  // namespace
}  // namespace kucnet::bench

int main() {
  kucnet::bench::Main();
  return 0;
}
