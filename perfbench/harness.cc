#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <set>
#include <thread>
#include <utility>

#include "data/synthetic.h"
#include "util/finite.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

using kucnet::ScoredItem;
using kucnet::ServeTier;

namespace {

/// Ranks `scores` exactly as the server's full tier does: the user's
/// training items excluded (unless that empties the list), then the top
/// `top_n` under the total order finite-descending, ties by item id.
std::vector<ScoredItem> RankLikeServer(const std::vector<double>& scores,
                                       const std::vector<int64_t>& train_items,
                                       int64_t top_n) {
  std::vector<int64_t> candidates;
  for (int64_t item = 0; item < static_cast<int64_t>(scores.size()); ++item) {
    if (!std::binary_search(train_items.begin(), train_items.end(), item)) {
      candidates.push_back(item);
    }
  }
  if (candidates.empty()) {
    for (int64_t item = 0; item < static_cast<int64_t>(scores.size()); ++item)
      candidates.push_back(item);
  }
  const int64_t n = std::min<int64_t>(top_n, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + n,
                    candidates.end(), kucnet::TotalScoreOrder{&scores});
  std::vector<ScoredItem> out;
  for (int64_t k = 0; k < n; ++k) {
    out.push_back({candidates[k], scores[candidates[k]]});
  }
  return out;
}

/// "" when `r` is a well-formed answer for `user`, else what is wrong.
std::string ResponseProblem(const RecResponse& r, int64_t num_items,
                            const std::vector<int64_t>& train_items) {
  if (r.items.empty()) return "OK response with no items";
  for (size_t k = 0; k < r.items.size(); ++k) {
    const ScoredItem& it = r.items[k];
    if (it.item < 0 || it.item >= num_items) {
      return "item " + std::to_string(it.item) + " out of range";
    }
    if (std::binary_search(train_items.begin(), train_items.end(), it.item)) {
      return "lists training item " + std::to_string(it.item);
    }
    if (k > 0 && !kucnet::ScoreBetter(r.items[k - 1].score,
                                      r.items[k - 1].item, it.score,
                                      it.item)) {
      return "items not sorted at rank " + std::to_string(k);
    }
  }
  return "";
}

}  // namespace

KucnetOptions ServingModelOptions() {
  KucnetOptions o;
  o.depth = 3;
  o.sample_k = 30;
  return o;
}

Dataset SynthLastFmData(kucnet::SplitKind kind) {
  const kucnet::SyntheticData synth =
      kucnet::GenerateSynthetic(kucnet::SynthLastFmConfig());
  kucnet::Rng split_rng(1);
  return kind == kucnet::SplitKind::kTemporal
             ? kucnet::TemporalSplit(synth.raw, synth.arrival_order, 0.8)
             : kucnet::TraditionalSplit(synth.raw, 0.2, split_rng);
}

std::unique_ptr<Deployment> DeploySynthLastFm(kucnet::SplitKind kind,
                                              const KucnetOptions& options) {
  auto d = std::make_unique<Deployment>();
  const int64_t t0 = NowNs();
  d->dataset = SynthLastFmData(kind);
  d->ckg.emplace(d->dataset.BuildCkg());
  d->train_items = d->dataset.TrainItemsByUser();
  const int64_t t1 = NowNs();
  d->ppr = kucnet::PprTable::Compute(*d->ckg, kucnet::PprTableOptions(),
                                     &kucnet::GlobalPool());
  const int64_t t2 = NowNs();
  d->data_build_s = static_cast<double>(t1 - t0) * 1e-9;
  d->ppr_table_s = static_cast<double>(t2 - t1) * 1e-9;
  d->model = std::make_unique<Kucnet>(&d->dataset, &*d->ckg, &d->ppr, options);
  return d;
}

RecServerOptions ServerOptions(int64_t servable_users) {
  RecServerOptions o;
  o.warm_cache_users = servable_users;
  o.cache.capacity = std::max(o.cache.capacity, servable_users);
  return o;
}

std::vector<ReadSample> RunClosedLoop(RecServer* server,
                                      const std::vector<Arrival>& keys,
                                      int64_t until_ns, Tracer* tracer) {
  std::vector<ReadSample> samples;
  samples.reserve(keys.size());
  for (size_t i = 0; i < keys.size() && NowNs() < until_ns; ++i) {
    ReadSample& s = samples.emplace_back();
    s.user = keys[i].key;
    std::future<RecResponse> future;
    {
      ScopedSpan span(tracer, "serve.submit", static_cast<int64_t>(i));
      s.sent_ns = NowNs();
      future = server->Submit({s.user, 0, kDeadlineMicros});
      s.submit_ns = NowNs() - s.sent_ns;
    }
    // Every request carries a 50 ms budget: one unanswered after ten
    // seconds was lost, and the run reports it.
    if (future.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      break;
    }
    s.response = future.get();
    s.done_ns = NowNs();
    s.resolved = true;
  }
  return samples;
}

void WarmUp(RecServer* server, const std::vector<int64_t>& users) {
  std::vector<std::future<RecResponse>> futures;
  for (int64_t k = 0; k < kWarmupRequests; ++k) {
    futures.push_back(
        server->Submit({users[k % users.size()], 0, kDeadlineMicros}));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& f : futures) f.wait();
}

ReadTotals ReportReads(const Run& run, const std::vector<ReadSample>& samples,
                       const Deployment& d) {
  ReadTotals totals;
  std::vector<double> latency_ms;
  int64_t unresolved = 0;
  for (const ReadSample& s : samples) {
    ++totals.sent;
    if (!s.resolved) {
      ++unresolved;
      continue;
    }
    if (s.response.status != ResponseStatus::kOk) continue;
    const std::string problem = ResponseProblem(
        s.response, d.dataset.num_items, d.train_items[s.user]);
    if (!problem.empty()) {
      run.report->Fail("user " + std::to_string(s.user) + ": " + problem);
      continue;
    }
    ++totals.answered;
    latency_ms.push_back(s.LatencyMs());
    if (s.response.tier == ServeTier::kFull && s.LatencyMs() <= kDeadlineMs) {
      ++totals.full_in_budget;
    }
  }
  if (unresolved > 0) {
    run.report->Fail(std::to_string(unresolved) +
                     " sent requests never resolved");
  }
  PrintDistribution("read latency (Submit -> answer)", "ms", latency_ms);
  PutQuietPercentiles(run, "latency", latency_ms, kReadChunking);
  run.report->Put("full_share",
                  static_cast<double>(totals.full_in_budget) /
                      static_cast<double>(std::max<int64_t>(totals.sent, 1)),
                  totals.sent);
  std::printf("reads: sent %lld, answered %lld, full tier within %.0f ms %lld\n",
              static_cast<long long>(totals.sent),
              static_cast<long long>(totals.answered), kDeadlineMs,
              static_cast<long long>(totals.full_in_budget));
  return totals;
}

void PutQuietPercentiles(const Run& run, const std::string& prefix,
                         const std::vector<double>& ms,
                         const Chunking& chunking) {
  const auto n = static_cast<int64_t>(ms.size());
  const int64_t chunks =
      std::min(chunking.max_chunks, n / chunking.min_per_chunk);
  for (const double q : {0.5, 0.9}) {
    const std::string name = prefix + (q == 0.5 ? "_p50_ms" : "_p90_ms");
    std::printf("%s per chunk of %lld:", name.c_str(),
                static_cast<long long>(chunks > 0 ? n / chunks : n));
    for (const double v : ChunkQuantiles(ms, chunks, q)) std::printf(" %.3f", v);
    std::printf("\n");
    run.report->Put(name, QuietQuantile(ms, chunking, q), n);
  }
}

int64_t CheckFullTierAnswers(const Run& run,
                             const std::vector<ReadSample>& samples,
                             const Deployment& d) {
  std::map<int64_t, std::vector<ScoredItem>> reference;
  int64_t checked = 0;
  for (const ReadSample& s : samples) {
    if (!s.answered() || s.response.tier != ServeTier::kFull) continue;
    auto it = reference.find(s.user);
    if (it == reference.end()) {
      kucnet::KucnetForward forward;
      const kucnet::Status st =
          d.model->TryForward(s.user, kucnet::ExecContext(), &forward);
      if (!st.ok()) {
        run.report->Fail("sequential TryForward failed for user " +
                         std::to_string(s.user) + ": " + st.message());
        return checked;
      }
      it = reference
               .emplace(s.user,
                        RankLikeServer(forward.item_scores,
                                       d.train_items[s.user],
                                       static_cast<int64_t>(
                                           s.response.items.size())))
               .first;
    }
    const std::vector<ScoredItem>& want = it->second;
    const std::vector<ScoredItem>& got = s.response.items;
    bool same = want.size() == got.size();
    for (size_t k = 0; same && k < got.size(); ++k) {
      same = want[k].item == got[k].item &&
             std::memcmp(&want[k].score, &got[k].score, sizeof(double)) == 0;
    }
    if (!same) {
      run.report->Fail("full-tier answer for user " + std::to_string(s.user) +
                       " differs from a sequential TryForward");
      return checked;
    }
    ++checked;
  }
  return checked;
}

void ReportServeLayer(const Run& run, const std::vector<ReadSample>& samples,
                      const kucnet::ServerStats& stats,
                      const std::map<int64_t, UserTiming>& replay) {
  std::vector<double> submit_us, admission_ms, full_stage_ms, batch_wait_ms;
  int64_t full_answers = 0;
  int64_t cached_answers = 0;
  for (const ReadSample& s : samples) {
    submit_us.push_back(static_cast<double>(s.submit_ns) * 1e-3);
    if (!s.answered()) continue;
    int64_t staged = 0;
    double full_ms = -1.0;
    for (const kucnet::StageTiming& st : s.response.stage_micros) {
      staged += st.micros;
      if (st.stage == "full") full_ms = static_cast<double>(st.micros) * 1e-3;
    }
    admission_ms.push_back(
        static_cast<double>(s.response.total_micros - staged) * 1e-3);
    if (s.response.tier == ServeTier::kCached) ++cached_answers;
    if (s.response.tier != ServeTier::kFull) continue;
    ++full_answers;
    full_stage_ms.push_back(full_ms);
    const auto it = replay.find(s.user);
    if (it != replay.end()) {
      batch_wait_ms.push_back(full_ms - it->second.extract_ms -
                              it->second.forward_ms);
    }
  }
  Report& r = *run.report;
  const auto ratio = [](int64_t num, int64_t den) {
    return static_cast<double>(num) /
           static_cast<double>(std::max<int64_t>(den, 1));
  };
  const Summary admission = Summarize(admission_ms);
  r.Put("serve.submit_us.p50", Median(submit_us),
        static_cast<int64_t>(submit_us.size()));
  r.Put("serve.admission_wait_ms.p50", admission.p50, admission.n);
  r.Put("serve.admission_wait_ms.p90", admission.p90, admission.n);
  r.Put("serve.full_stage_ms.p50", Median(full_stage_ms),
        static_cast<int64_t>(full_stage_ms.size()));
  r.Put("serve.batch_wait_ms.p50", Median(batch_wait_ms),
        static_cast<int64_t>(batch_wait_ms.size()));
  r.Put("serve.batch_size.mean",
        ratio(stats.batched_requests, stats.forward_batches),
        stats.forward_batches);
  r.Put("serve.multi_batch_share",
        ratio(stats.multi_user_batches, stats.forward_batches),
        stats.forward_batches);
  r.Put("serve.preempted_share", ratio(stats.deadline_preempted, stats.admitted),
        stats.admitted);
  r.Put("serve.missed_share", ratio(stats.deadline_missed, stats.admitted),
        stats.admitted);
  r.Put("serve.forward_yield", ratio(full_answers, stats.batched_requests),
        stats.batched_requests);
  r.Put("serve.shed_share", ratio(stats.shed, stats.submitted),
        stats.submitted);
  r.Put("serve.cached_share", ratio(cached_answers, stats.completed),
        stats.completed);
}

std::vector<int64_t> DistinctUsers(const std::vector<ReadSample>& samples) {
  std::set<int64_t> users;
  for (const ReadSample& s : samples) users.insert(s.user);
  return {users.begin(), users.end()};
}

void PrintDistribution(const std::string& label, const std::string& unit,
                       const std::vector<double>& samples) {
  const Summary s = Summarize(samples);
  const auto tail = [&](double q) {
    return SamplesBeyond(s.n, q) >= 10 ? "" : " (<10 beyond)";
  };
  std::printf("%s: n=%lld p50=%.4f p90=%.4f p99=%.4f%s p99.9=%.4f%s max=%.4f "
              "%s\n",
              label.c_str(), static_cast<long long>(s.n), s.p50, s.p90, s.p99,
              tail(0.99), s.p999, tail(0.999), s.max, unit.c_str());
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mb = static_cast<double>(std::strtoll(line + 6, nullptr, 10)) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

HostTicks ReadHostTicks() {
  HostTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  long long v[8] = {};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

void PrintSteal(const std::string& what, const HostTicks& since) {
  const HostTicks now = ReadHostTicks();
  const int64_t total = now.total - since.total;
  std::printf("host steal during %s: %.1f%% of CPU time\n", what.c_str(),
              total > 0 ? 100.0 * static_cast<double>(now.steal - since.steal) /
                              static_cast<double>(total)
                        : 0.0);
}

}  // namespace perfbench
