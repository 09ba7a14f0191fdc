// train: synth-lastfm, Kucnet::TrainEpoch for a fixed number of epochs,
// then the all-ranking evaluation. The only workload on the tape backward,
// Adam and negative sampling; serving changes should leave epoch_s and
// recall_at_20 where they are.
//
// train has no read or update traffic of its own, yet reports the read and
// update metrics too (see main.cc). After every epoch comes a probe step:
// the model as trained so far answers kReadsPerStep requests through a
// RecServer, closed-loop (each one sent when the previous one has been
// answered), and a StreamingCkg over the synth-lastfm temporal split appends
// the next kUpdatesPerStep of stream_mixed's updates, one after another. The
// steps spread these samples over the whole run, so they are chunked like
// stream_mixed's (see QuietQuantile). Serving and appending leave the model
// and its random stream alone: the epochs and the recall are those of
// training alone.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "harness.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using kucnet::StreamingCkg;

/// Sizes the epoch count from --seconds with a fixed nominal time for an
/// epoch and its probe step (never a measured one), so a run trains a fixed,
/// seed-independent number of epochs: 40 at 30 s.
constexpr double kNominalStepSeconds = 0.75;
/// Epochs of a side run, which has no probe steps.
constexpr int kSideEpochs = 10;
/// Requests and updates of each probe step.
constexpr int64_t kReadsPerStep = 50;
constexpr int64_t kUpdatesPerStep = 8;

/// Ranks items by training popularity: the floor a trained model must beat.
class PopularityRanker : public kucnet::Ranker {
 public:
  explicit PopularityRanker(const kucnet::Dataset& data)
      : counts_(data.num_items, 0.0) {
    for (const auto& [user, item] : data.train) counts_[item] += 1.0;
  }
  std::vector<double> ScoreItems(int64_t) const override { return counts_; }

 private:
  std::vector<double> counts_;
};

struct TrainState {
  std::unique_ptr<Deployment> d;
  // Probe steps only (not in a side run).
  Dataset stream_data;
  kucnet::InMemoryFileSystem fs;
  std::unique_ptr<StreamingCkg> stream;
  std::unique_ptr<RecServer> server;  // declared last: destroyed first
};

}  // namespace

void RunTrain(const Run& run, bool side) {
  const int epochs =
      side ? kSideEpochs
           : std::max(3, static_cast<int>(std::lround(run.config.seconds /
                                                      kNominalStepSeconds)));
  kucnet::KucnetOptions options = ServingModelOptions();
  options.seed = run.config.seed;
  const int64_t num_users = kucnet::SynthLastFmConfig().num_users;
  std::vector<int64_t> users(num_users);
  for (int64_t u = 0; u < num_users; ++u) users[u] = u;
  std::vector<Arrival> read_keys(side ? 0 : epochs * kReadsPerStep);
  AssignZipfKeys(run.config.seed, users, kUserZipf, &read_keys);
  std::printf("train%s: synth-lastfm, depth-3 K=30 d=32, %d epochs",
              side ? " (side run)" : "", epochs);
  if (!side) {
    std::printf(", each followed by %lld requests and %lld updates",
                static_cast<long long>(kReadsPerStep),
                static_cast<long long>(kUpdatesPerStep));
  }
  std::printf("\n");

  auto state = RepeatedSetup<TrainState>(run, side ? 1 : kSetupRepeats, [&] {
    auto s = std::make_unique<TrainState>();
    s->d = DeploySynthLastFm(kucnet::SplitKind::kTraditional, options);
    if (!side) {
      s->server = std::make_unique<RecServer>(
          s->d->model.get(), &s->d->dataset, s->d->graph(), &s->d->ppr,
          ServerOptions(num_users));
      s->stream_data = SynthLastFmData(kucnet::SplitKind::kTemporal);
      s->stream = OpenStream(s->stream_data, &s->fs);
      WarmUp(s->server.get(), users);
    }
    return s;
  });
  Deployment& d = *state->d;
  const auto suffix = static_cast<int64_t>(state->stream_data.test.size());
  kucnet::Rng rng(run.config.seed);
  std::vector<double> epoch_s;
  std::vector<ReadSample> reads;
  std::vector<double> update_ms;
  int64_t nonfinite = 0;
  int64_t full_checked = 0;
  int64_t updates_sent = 0;
  const HostTicks ticks = ReadHostTicks();
  for (int e = 0; e < epochs; ++e) {
    {
      ScopedSpan span(run.tracer, "train.epoch", e);
      const int64_t t0 = NowNs();
      const double loss = d.model->TrainEpoch(rng);
      epoch_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
      if (!std::isfinite(loss)) ++nonfinite;
      if (side || e % 10 == 0 || e + 1 == epochs) {
        std::printf("epoch %d: loss %.6f, %.3f s\n", e + 1, loss,
                    epoch_s.back());
      }
    }
    if (side) continue;
    const std::vector<ReadSample> step = RunClosedLoop(
        state->server.get(),
        {read_keys.begin() + e * kReadsPerStep,
         read_keys.begin() + (e + 1) * kReadsPerStep},
        std::numeric_limits<int64_t>::max(), run.tracer);
    // The next epoch changes the model: check this step's answers now.
    full_checked += CheckFullTierAnswers(run, step, d);
    reads.insert(reads.end(), step.begin(), step.end());
    for (int64_t k = 0; k < kUpdatesPerStep && updates_sent < suffix; ++k) {
      const auto& [user, item] = state->stream_data.test[updates_sent++];
      const int64_t t0 = NowNs();
      const bool ok = state->stream->AppendInteraction(user, item).ok();
      if (ok) update_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    }
  }
  PrintSteal(side ? "the epochs" : "the epochs and probe steps", ticks);
  if (nonfinite > 0) run.report->Fail("training loss went non-finite");
  run.report->AddOps(epochs, nonfinite);

  const kucnet::EvalResult eval = kucnet::EvaluateRanking(*d.model, d.dataset);
  const kucnet::EvalResult pop =
      kucnet::EvaluateRanking(PopularityRanker(d.dataset), d.dataset);
  std::printf("recall@20 %.4f (popularity %.4f), ndcg@20 %.4f, %lld users\n",
              eval.recall, pop.recall, eval.ndcg,
              static_cast<long long>(eval.num_users));
  if (!(eval.recall >= pop.recall)) {
    run.report->Fail("recall@20 is below the popularity ranking's");
  }
  PrintDistribution("epoch wall time", "s", epoch_s);
  const double epoch_median = Median(epoch_s);
  run.report->Put("epoch_s", QuietQuantile(epoch_s, kEpochChunking, 0.5),
                  epochs);
  run.report->Put("recall_at_20", eval.recall, eval.num_users);

  if (!side) {
    state->server->Shutdown();
    std::printf("probe steps: %zu requests to the model as trained so far; "
                "full-tier answers equal to a sequential TryForward: %lld\n",
                reads.size(), static_cast<long long>(full_checked));
    const ReadTotals totals = ReportReads(run, reads, d);
    const auto accepted = static_cast<int64_t>(update_ms.size());
    const int64_t attempted = totals.sent + updates_sent;
    run.report->AddOps(attempted,
                       totals.sent - totals.answered + updates_sent - accepted);
    run.report->Put("answered_share",
                    static_cast<double>(totals.answered + accepted) /
                        static_cast<double>(std::max<int64_t>(attempted, 1)),
                    attempted);
    std::printf("probe steps: %lld of stream_mixed's updates appended, %lld "
                "accepted\n",
                static_cast<long long>(updates_sent),
                static_cast<long long>(accepted));
    PrintDistribution("update latency (AppendInteraction call -> return)",
                      "ms", update_ms);
    PutQuietPercentiles(run, "update", update_ms, kUpdateChunking);
  }

  if (run.config.trace) {
    int64_t trained_users = 0;
    for (const auto& items : d.train_items) trained_users += !items.empty();
    run.report->Put("train.users_per_s",
                    static_cast<double>(trained_users) / epoch_median, epochs);
  }
  run.report->Put("data.build_s", d.data_build_s, 1);
  run.report->Put("ppr.table_s", d.ppr_table_s, 1);
}

}  // namespace perfbench
