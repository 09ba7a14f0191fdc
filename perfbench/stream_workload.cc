// stream_mixed: writes beside reads. A writer thread appends the held-out
// suffix of a synth-lastfm temporal split through StreamingCkg at a fixed
// rate while a reader sends requests closed-loop, each one when the previous
// one has been answered, so one read is always in flight. Every applied
// update repairs PPR and invalidates the touched users' cached scores
// through the invalidation hook, so the score cache is churned, and PPR
// repair competes with forwards for the global pool. The WAL lives on the
// in-memory FileSystem: disk fsync cost is not measured.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>

#include "data/synthetic.h"
#include "graph/dynamic_ckg.h"
#include "harness.h"
#include "ppr/dynamic_ppr.h"
#include "stream/streaming_ckg.h"
#include "stream/update_log.h"
#include "util/fs.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using kucnet::RecServer;
using kucnet::StreamingCkg;

/// Users drawn for the reader per second of window: more than a closed loop
/// can send (a read takes ~2 ms), so the window, not the list, ends it.
constexpr int64_t kReadKeysPerS = 2000;
/// Updates appended per second (the suffix holds 840, enough for 84 s).
/// Each repair holds the whole pool for 5-7 ms, so at this rate it is busy
/// with repairs under 10% of the time and the reads it delays fall beyond
/// the p90, not on it: at 20/s the read p90 flipped between the delayed and
/// undelayed modes from run to run.
constexpr double kUpdateRatePerS = 10.0;
/// Users replayed per layer in traced runs.
constexpr int64_t kReplayUsers = 64;
/// Window of a side run: a traced train run makes one only for the
/// per-layer metrics, which need no long window.
constexpr double kSideSeconds = 10.0;

struct StreamState {
  std::unique_ptr<Deployment> d;
  kucnet::InMemoryFileSystem fs;
  std::unique_ptr<StreamingCkg> stream;
  std::unique_ptr<RecServer> server;  // declared last: destroyed first
};

struct UpdateSample {
  int64_t index = 0;        ///< into dataset.test
  int64_t scheduled_ns = 0;
  int64_t start_ns = 0;     ///< AppendInteraction called
  int64_t end_ns = 0;       ///< AppendInteraction returned
  bool ok = false;
};

/// Replays the accepted updates one layer at a time — WAL append, overlay
/// insert, PPR repair — on fresh copies, for the stream and ppr per-layer
/// metrics.
void ReplayStreamLayers(const Run& run, const kucnet::Dataset& data,
                        const std::vector<int64_t>& accepted) {
  kucnet::InMemoryFileSystem fs;
  kucnet::GraphUpdateLog wal(&fs, "replay");
  std::vector<kucnet::GraphUpdate> recovered;
  (void)wal.Open(&recovered);
  kucnet::DynamicCkg graph(data.num_users, data.num_items, data.num_kg_nodes,
                           data.num_kg_relations, data.train, data.kg,
                           data.user_kg);
  kucnet::DynamicPprTable ppr = kucnet::DynamicPprTable::Compute(
      graph, kucnet::PprTableOptions(), &kucnet::GlobalPool());
  std::vector<double> wal_us, insert_us, repair_ms, pushes, touched;
  for (const int64_t k : accepted) {
    const auto& [user, item] = data.test[k];
    int64_t t0 = NowNs();
    {
      ScopedSpan span(run.tracer, "stream.wal_append", k);
      (void)wal.Append(
          kucnet::GraphUpdate::Interaction(wal.next_seq(), user, item));
    }
    wal_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    std::vector<kucnet::Edge> inserted;
    t0 = NowNs();
    bool fresh = false;
    {
      ScopedSpan span(run.tracer, "stream.graph_insert", k);
      fresh = graph.AddInteraction(user, item, &inserted);
    }
    insert_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    if (!fresh) continue;
    t0 = NowNs();
    {
      ScopedSpan span(run.tracer, "ppr.repair", k);
      ppr.ApplyEdgeInsertions(graph, inserted, &kucnet::GlobalPool());
    }
    repair_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    pushes.push_back(static_cast<double>(ppr.last_repair_stats().pushes));
    touched.push_back(
        static_cast<double>(ppr.last_repair_stats().users_touched));
  }
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const Summary repair = Summarize(repair_ms);
  Report& r = *run.report;
  r.Put("ppr.repair_ms.p50", repair.p50, repair.n);
  r.Put("ppr.repair_ms.p90", repair.p90, repair.n);
  r.Put("ppr.repair_pushes.mean", mean(pushes), repair.n);
  r.Put("ppr.users_touched.mean", mean(touched), repair.n);
  r.Put("stream.wal_append_us.p50", Median(wal_us),
        static_cast<int64_t>(wal_us.size()));
  r.Put("stream.graph_insert_us.p50", Median(insert_us),
        static_cast<int64_t>(insert_us.size()));
}

/// The parts of a request should add up to the whole: the closed loop keeps
/// one read in flight, so the replayed medians of graph build, forward and
/// ranking may explain no less than 50% and no more than 150% of the
/// window's latency p50.
void CheckReconciliation(const Run& run) {
  Report& r = *run.report;
  const double parts = r.Value("graph.build_ms.p50") +
                       r.Value("core.forward_ms.p50") +
                       r.Value("serve.rank_ms.p50");
  const double whole = r.Value("latency_p50_ms");
  const double ratio = parts / whole;
  std::printf("reconciliation: build + forward + rank = %.3f ms against "
              "latency p50 %.3f ms (ratio %.3f, allowed 0.50-1.50)\n",
              parts, whole, ratio);
  if (!(ratio >= 0.5 && ratio <= 1.5)) {
    r.Fail("layer medians do not reconcile with latency_p50_ms");
  }
}

}  // namespace

std::unique_ptr<StreamingCkg> OpenStream(const kucnet::Dataset& data,
                                         kucnet::FileSystem* fs) {
  std::unique_ptr<StreamingCkg> stream;
  const kucnet::Status st =
      StreamingCkg::Open(data, fs, "wal", kucnet::StreamingCkgOptions(),
                         &kucnet::GlobalPool(), &stream);
  if (!st.ok()) {
    std::printf("CHECK FAILED: StreamingCkg::Open: %s\n", st.message().c_str());
    std::exit(1);
  }
  return stream;
}

void RunStreamMixed(const Run& run, bool side) {
  const double seconds =
      side ? std::min(run.config.seconds, kSideSeconds) : run.config.seconds;
  const uint64_t seed = run.config.seed;
  const int64_t num_users = kucnet::SynthLastFmConfig().num_users;
  std::vector<int64_t> users(num_users);
  for (int64_t u = 0; u < num_users; ++u) users[u] = u;
  std::vector<Arrival> reads(
      static_cast<size_t>(seconds * static_cast<double>(kReadKeysPerS)));
  AssignZipfKeys(seed, users, kUserZipf, &reads);
  // The writer keeps a fixed rate: one update every 1 / rate, so that every
  // seed appends the same prefix of the suffix.
  std::vector<Arrival> updates =
      FixedRateArrivals(seed ^ 0xabcdefULL, kUpdateRatePerS, seconds);

  auto state = RepeatedSetup<StreamState>(
      run, side ? 1 : kSetupRepeats, [&] {
        auto s = std::make_unique<StreamState>();
        s->d = DeploySynthLastFm(kucnet::SplitKind::kTemporal,
                                 ServingModelOptions());
        s->server = std::make_unique<RecServer>(
            s->d->model.get(), &s->d->dataset, s->d->graph(), &s->d->ppr,
            ServerOptions(num_users));
        s->stream = OpenStream(s->d->dataset, &s->fs);
        WarmUp(s->server.get(), users);
        return s;
      });
  const kucnet::Dataset& data = state->d->dataset;
  const int64_t suffix = static_cast<int64_t>(data.test.size());
  if (static_cast<int64_t>(updates.size()) > suffix) updates.resize(suffix);
  std::printf("stream_mixed%s: synth-lastfm temporal split, %zu updates at "
              "%.0f/s beside closed-loop reads over %.0f s\n",
              side ? " (side run)" : "", updates.size(), kUpdateRatePerS,
              seconds);

  std::vector<double> invalidate_us;
  RecServer* server = state->server.get();
  state->stream->set_invalidation_hook(
      [&](const std::vector<int64_t>& touched) {
        ScopedSpan span(run.tracer, "serve.invalidate");
        const int64_t t0 = NowNs();
        server->InvalidateUsers(touched);
        invalidate_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      });

  const int64_t start = NowNs() + 20'000'000;
  const HostTicks ticks = ReadHostTicks();
  std::vector<UpdateSample> applied(updates.size());
  std::jthread writer([&] {
    for (size_t i = 0; i < updates.size(); ++i) {
      UpdateSample& u = applied[i];
      u.index = updates[i].key;
      u.scheduled_ns = start + updates[i].at_us * 1000;
      const int64_t wait_ns = u.scheduled_ns - NowNs();
      if (wait_ns > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns));
      }
      const auto& [user, item] = data.test[u.index];
      ScopedSpan span(run.tracer, "stream.append", u.index);
      u.start_ns = NowNs();
      u.ok = state->stream->AppendInteraction(user, item).ok();
      u.end_ns = NowNs();
    }
  });
  std::this_thread::sleep_for(std::chrono::nanoseconds(start - NowNs()));
  const std::vector<ReadSample> samples = RunClosedLoop(
      server, reads, start + static_cast<int64_t>(seconds * 1e9), run.tracer);
  writer.join();
  PrintSteal("the window", ticks);
  server->Shutdown();
  state->stream->set_invalidation_hook(nullptr);

  // Reads, then writes, then the checks that need both.
  const ReadTotals totals = ReportReads(run, samples, *state->d);
  std::vector<double> update_ms, append_ms, wait_ms;
  std::vector<int64_t> accepted;
  for (const UpdateSample& u : applied) {
    if (!u.ok) continue;
    accepted.push_back(u.index);
    update_ms.push_back(static_cast<double>(u.end_ns - u.scheduled_ns) * 1e-6);
    append_ms.push_back(static_cast<double>(u.end_ns - u.start_ns) * 1e-6);
    wait_ms.push_back(static_cast<double>(u.start_ns - u.scheduled_ns) * 1e-6);
  }
  const int64_t failed_updates =
      static_cast<int64_t>(updates.size() - accepted.size());
  const int64_t attempted = totals.sent + static_cast<int64_t>(updates.size());
  run.report->AddOps(attempted,
                     totals.sent - totals.answered + failed_updates);
  run.report->Put("answered_share",
                  static_cast<double>(totals.answered +
                                      static_cast<int64_t>(accepted.size())) /
                      static_cast<double>(std::max<int64_t>(attempted, 1)),
                  attempted);
  PrintDistribution("update latency (scheduled -> AppendInteraction returned)",
                    "ms", update_ms);
  PutQuietPercentiles(run, "update", update_ms, kUpdateChunking);
  std::printf("updates: %zu scheduled, %zu accepted, %lld applied, %lld "
              "duplicates, %lld users invalidated\n",
              updates.size(), accepted.size(),
              static_cast<long long>(state->stream->stats().applied),
              static_cast<long long>(state->stream->stats().duplicates),
              static_cast<long long>(state->stream->stats().invalidated_users));

  std::printf("full-tier answers equal to a sequential TryForward: %lld\n",
              static_cast<long long>(
                  CheckFullTierAnswers(run, samples, *state->d)));
  {
    // The stream under concurrent reads must end in the state a quiet
    // sequential replay of the same accepted updates reaches.
    kucnet::InMemoryFileSystem quiet_fs;
    std::unique_ptr<StreamingCkg> quiet = OpenStream(data, &quiet_fs);
    for (const int64_t k : accepted) {
      (void)quiet->AppendInteraction(data.test[k][0], data.test[k][1]);
    }
    if (quiet->StateDigest() != state->stream->StateDigest()) {
      run.report->Fail("stream StateDigest differs from a quiet replay of the "
                       "accepted updates");
    } else {
      std::printf("stream StateDigest equals a quiet replay of %zu updates\n",
                  accepted.size());
    }
  }

  if (run.config.trace) {
    const Summary append = Summarize(append_ms);
    run.report->Put("stream.append_ms.p50", append.p50, append.n);
    run.report->Put("stream.append_ms.p90", append.p90, append.n);
    run.report->Put("stream.update_wait_ms.p90", Summarize(wait_ms).p90,
                    static_cast<int64_t>(wait_ms.size()));
    run.report->Put("serve.invalidate_us.p50", Median(invalidate_us),
                    static_cast<int64_t>(invalidate_us.size()));
    ReplayStreamLayers(run, data, accepted);
    const auto timings = ReplayLayers(run, state->d.get(),
                                      DistinctUsers(samples), kReplayUsers);
    ReportServeLayer(run, samples, server->stats(), timings);
    if (!side) CheckReconciliation(run);
  }
  run.report->Put("data.build_s", state->d->data_build_s, 1);
  run.report->Put("ppr.table_s", state->d->ppr_table_s, 1);
}

}  // namespace perfbench
