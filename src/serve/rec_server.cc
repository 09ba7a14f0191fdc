#include "serve/rec_server.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "serve/pipeline.h"
#include "util/finite.h"
#include "util/logging.h"

namespace kucnet {

namespace {

/// Failure taxonomy for degradation accounting: an ExecContext checkpoint
/// fails either because a fault was injected or because the deadline passed
/// (see ExecContext::Check, which reports the fault preferentially).
bool IsInjectedFault(const Status& status) {
  return status.message().find("injected fault") != std::string::npos;
}

/// Appends one "; "-separated entry to the response's degrade reason.
void AppendReason(RecResponse* response, const std::string& text) {
  std::string& reason = response->degrade_reason;
  if (!reason.empty()) reason += "; ";
  reason += text;
}

std::future<RecResponse> ReadyResponse(RecResponse response) {
  std::promise<RecResponse> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

}  // namespace

const char* ServeTierName(ServeTier tier) {
  switch (tier) {
    case ServeTier::kFull:
      return "full";
    case ServeTier::kCached:
      return "cached";
    case ServeTier::kHeuristic:
      return "heuristic";
    case ServeTier::kPopularity:
      return "popularity";
  }
  return "unknown";
}

void ServerStats::MergeFrom(const ServerStats& other) {
  submitted = obs::SaturatingAdd(submitted, other.submitted);
  admitted = obs::SaturatingAdd(admitted, other.admitted);
  shed = obs::SaturatingAdd(shed, other.shed);
  completed = obs::SaturatingAdd(completed, other.completed);
  deadline_missed = obs::SaturatingAdd(deadline_missed, other.deadline_missed);
  fault_events = obs::SaturatingAdd(fault_events, other.fault_events);
  nonfinite_scores =
      obs::SaturatingAdd(nonfinite_scores, other.nonfinite_scores);
  cache_warmed = obs::SaturatingAdd(cache_warmed, other.cache_warmed);
  degraded = obs::SaturatingAdd(degraded, other.degraded);
  no_ppr_user = obs::SaturatingAdd(no_ppr_user, other.no_ppr_user);
  forward_batches = obs::SaturatingAdd(forward_batches, other.forward_batches);
  batched_requests =
      obs::SaturatingAdd(batched_requests, other.batched_requests);
  multi_user_batches =
      obs::SaturatingAdd(multi_user_batches, other.multi_user_batches);
  deadline_preempted =
      obs::SaturatingAdd(deadline_preempted, other.deadline_preempted);
  for (int t = 0; t < kNumServeTiers; ++t) {
    tier_count[t] = obs::SaturatingAdd(tier_count[t], other.tier_count[t]);
  }
  latency.MergeFrom(other.latency);
}

RecServer::RecServer(const Kucnet* model, const Dataset* dataset,
                     GraphRef ckg, const PprTable* ppr,
                     RecServerOptions options)
    : model_(model),
      dataset_(dataset),
      ckg_(ckg.get()),
      ppr_(ppr),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : &RealClock()),
      cache_(options_.cache, clock_),
      train_items_(dataset->TrainItemsByUser()) {
  KUC_CHECK(model != nullptr);
  KUC_CHECK(dataset != nullptr);
  KUC_CHECK(ckg_ != nullptr);
  KUC_CHECK(ppr != nullptr);
  KUC_CHECK_GT(dataset->num_items, 0) << "cannot serve an empty catalogue";
  KUC_CHECK_GE(options_.num_workers, 0);
  KUC_CHECK_GT(options_.queue_capacity, 0);
  KUC_CHECK_GT(options_.default_top_n, 0);
  KUC_CHECK_GT(options_.default_deadline_micros, 0);
  KUC_CHECK_GT(options_.batch_max_users, 0);
  KUC_CHECK_GE(options_.batch_linger_micros, 0);

  // The infallible last tier's scores: training interactions per item.
  popularity_.assign(dataset->num_items, 0.0);
  for (const auto& [user, item] : dataset->train) popularity_[item] += 1.0;

  if (options_.warm_cache_users > 0) WarmCache(options_.warm_cache_users);

  pipeline_ = std::make_unique<ServePipeline>(this, clock_);
}

RecServer::~RecServer() { Shutdown(); }

std::future<RecResponse> RecServer::Submit(const RecRequest& request) {
  auto job = std::make_unique<ServeJob>();
  job->request = request;
  job->submit_micros = clock_->NowMicros();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.submitted;
  }
  KUC_OBS_COUNT("serve.submitted", 1);
  std::future<RecResponse> future = job->promise.get_future();
  const ResponseStatus admission = pipeline_->Submit(std::move(job));
  if (admission == ResponseStatus::kOk) {
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.admitted;
    }
    KUC_OBS_COUNT("serve.admitted", 1);
    return future;
  }
  if (admission == ResponseStatus::kOverloaded) {
    // Overload shedding: reject *now* with an explicit status. The caller
    // can retry with backoff; nothing ever blocks on a full queue.
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.shed;
    }
    KUC_OBS_COUNT("serve.shed", 1);
  }
  RecResponse rejected;
  rejected.status = admission;
  return ReadyResponse(std::move(rejected));
}

RecResponse RecServer::ServeSync(const RecRequest& request) {
  ServeJob job;
  job.request = request;
  job.submit_micros = clock_->NowMicros();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.submitted;
    ++stats_.admitted;
  }
  KUC_OBS_COUNT("serve.submitted", 1);
  KUC_OBS_COUNT("serve.admitted", 1);
  std::future<RecResponse> future = job.promise.get_future();
  pipeline_->RunInline(&job);
  return future.get();
}

void RecServer::Shutdown() { pipeline_->Shutdown(); }

ServerStats RecServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

int64_t RecServer::WarmCache(int64_t max_users) {
  // Hottest first: the users with the most training interactions are the
  // best proxy for request popularity available before traffic arrives.
  std::vector<std::pair<int64_t, int64_t>> activity;  // (count, user)
  activity.reserve(train_items_.size());
  for (int64_t user = 0; user < static_cast<int64_t>(train_items_.size());
       ++user) {
    activity.push_back({static_cast<int64_t>(train_items_[user].size()), user});
  }
  std::sort(activity.begin(), activity.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  const int64_t n =
      std::min<int64_t>(max_users, static_cast<int64_t>(activity.size()));
  int64_t warmed = 0;
  for (int64_t k = 0; k < n; ++k) {
    const int64_t user = activity[k].second;
    const int64_t generation = cache_.generation(user);
    KucnetForward forward;
    // Unbounded, fault-free context: warming is background work, not a
    // request — it must neither consume armed test faults nor miss deadlines.
    if (!model_->TryForward(user, ExecContext(), &forward).ok()) continue;
    if (FirstNonFinite(forward.item_scores) >= 0) continue;
    cache_.Put(user, std::move(forward.item_scores), generation);
    ++warmed;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.cache_warmed = obs::SaturatingAdd(stats_.cache_warmed, warmed);
  }
  KUC_OBS_COUNT("serve.cache.warmed", warmed);
  return warmed;
}

void RecServer::InvalidateCache() { cache_.BumpGeneration(); }

void RecServer::InvalidateUsers(const std::vector<int64_t>& users) {
  for (const int64_t user : users) cache_.InvalidateUser(user);
}

int64_t RecServer::queue_depth() const { return pipeline_->queue_depth(); }

int64_t RecServer::in_flight() const { return pipeline_->in_flight(); }

bool RecServer::Quiesced() const { return pipeline_->Quiesced(); }

bool RecServer::RankInto(int64_t user, const std::vector<double>& scores,
                         int64_t top_n, RecResponse* out) const {
  const int64_t num_items = static_cast<int64_t>(scores.size());
  if (num_items == 0) return false;
  const std::vector<int64_t>* exclude =
      user >= 0 && user < static_cast<int64_t>(train_items_.size())
          ? &train_items_[user]
          : nullptr;
  std::vector<int64_t> candidates;
  candidates.reserve(num_items);
  for (int64_t item = 0; item < num_items; ++item) {
    if (exclude != nullptr &&
        std::binary_search(exclude->begin(), exclude->end(), item)) {
      continue;
    }
    candidates.push_back(item);
  }
  if (candidates.empty()) {
    // The user consumed the whole catalogue; re-recommending beats nothing.
    for (int64_t item = 0; item < num_items; ++item)
      candidates.push_back(item);
  }
  const int64_t n = std::min<int64_t>(top_n, candidates.size());
  // Total order (finite desc, non-finite sunk, ties by index): valid for
  // std::partial_sort even if a fallback tier ever hands us corrupt scores.
  std::partial_sort(candidates.begin(), candidates.begin() + n,
                    candidates.end(), TotalScoreOrder{&scores});
  out->items.clear();
  out->items.reserve(n);
  for (int64_t k = 0; k < n; ++k) {
    out->items.push_back({candidates[k], scores[candidates[k]]});
  }
  return !out->items.empty();
}

void RecServer::NoteFailure(ServeJob* job, const char* tier,
                            const Status& status) const {
  if (IsInjectedFault(status)) {
    ++job->fault_events;
    obs::Count(std::string("serve.degrade.fault.") + tier, 1);
  } else {
    job->deadline_missed = true;
    obs::Count(std::string("serve.degrade.deadline.") + tier, 1);
  }
  AppendReason(&job->response, std::string(tier) + ": " + status.message());
}

void RecServer::TimeStage(ServeJob* job, const char* stage,
                          int64_t start_micros) const {
  job->response.stage_micros.push_back(
      {stage, clock_->NowMicros() - start_micros});
}

void RecServer::ExtractStage(ServeJob* job) {
  KUC_TRACE_SPAN("serve.extract");
  job->top_n =
      job->request.top_n > 0 ? job->request.top_n : options_.default_top_n;
  const int64_t budget = job->request.deadline_micros > 0
                             ? job->request.deadline_micros
                             : options_.default_deadline_micros;
  // The deadline is anchored at *admission*: time spent queued (or waiting
  // in a batch) counts against the request, so a long wait degrades rather
  // than letting stale work burn compute.
  job->deadline = Deadline::At(*clock_, job->submit_micros + budget);
  job->full_ctx = ExecContext(job->deadline, options_.fault);
  // Fallback tiers ARE the degradation path, so they run even once the
  // deadline has passed (each is orders of magnitude cheaper than the full
  // tier); only the fault seam can knock one out.
  job->fallback_ctx = ExecContext(Deadline::Infinite(), options_.fault);

  job->full_t0 = clock_->NowMicros();
  // A user the model has no graph for can never be served by the full tier,
  // whatever its budget: a bad request, not a deadline miss or a fault.
  if (const Status known = model_->ValidateUser(job->request.user);
      !known.ok()) {
    job->full_skipped = true;
    KUC_OBS_COUNT("serve.degrade.unknown_user", 1);
    AppendReason(&job->response, "full: " + known.message());
    TimeStage(job, "full", job->full_t0);
    return;
  }
  if (job->deadline.Expired()) {
    job->full_skipped = true;
    NoteFailure(job, "full",
                ErrorStatus() << "deadline expired before execution "
                                 "(queued past the latency budget)");
    TimeStage(job, "full", job->full_t0);
    return;
  }
  // Snapshot the user's cache generation *before* the forward pass: if the
  // model is hot-swapped (or a streaming update touches this user) while
  // this pass runs, the deposit in FinishFullTier is discarded instead of
  // planting stale scores in a fresh cache.
  job->cache_generation = cache_.generation(job->request.user);
  job->full_status =
      model_->TryExtractGraph(job->request.user, job->full_ctx, &job->forward);
  job->forward_pending = job->full_status.ok();
}

void RecServer::FinishFullTier(ServeJob* job) {
  if (job->full_skipped) return;  // already noted and timed
  TimeStage(job, "full", job->full_t0);
  if (!job->full_status.ok()) {
    NoteFailure(job, "full", job->full_status);
  } else if (const int64_t bad = FirstNonFinite(job->forward.item_scores);
             bad >= 0) {
    // A mid-divergence checkpoint produces NaN/Inf scores. Serving them
    // would poison the ranking; caching them would keep poisoning every
    // degraded request until max_age expiry. Reject the output here and
    // fall through the degrade chain (cached → PPR → popularity).
    ++job->nonfinite;
    KUC_OBS_COUNT("serve.degrade.nonfinite", 1);
    AppendReason(&job->response,
                 "full: non-finite score at item " + std::to_string(bad));
  } else {
    // Deposit for future degraded requests *before* ranking, so even a
    // ranking-size-zero catalogue edge case keeps the cache warm.
    cache_.Put(job->request.user, job->forward.item_scores,
               job->cache_generation);
    job->served = RankInto(job->request.user, job->forward.item_scores,
                           job->top_n, &job->response);
    if (job->served) job->response.tier = ServeTier::kFull;
  }
}

void RecServer::RunFallbackTiers(ServeJob* job) {
  const RecRequest& request = job->request;

  // ---- Tier 2: cached scores (staleness-bounded LRU) -----------------------
  if (!job->served) {
    KUC_TRACE_SPAN("serve.cache");
    const int64_t t0 = clock_->NowMicros();
    const Status status = job->fallback_ctx.Check("cache");
    if (status.ok()) {
      std::vector<double> scores;
      int64_t age = -1;
      if (cache_.Get(request.user, &scores, &age) &&
          RankInto(request.user, scores, job->top_n, &job->response)) {
        job->served = true;
        job->response.tier = ServeTier::kCached;
        job->response.cache_age_micros = age;
      }
    } else {
      NoteFailure(job, "cache", status);
    }
    TimeStage(job, "cache", t0);
  }

  // ---- Tier 3: PPR heuristic (PprRec ranking) ------------------------------
  if (!job->served) {
    KUC_TRACE_SPAN("serve.heuristic");
    const int64_t t0 = clock_->NowMicros();
    const Status status = job->fallback_ctx.Check("heuristic");
    if (status.ok() && request.user >= 0 &&
        request.user < ppr_->num_users()) {
      std::vector<double> scores(dataset_->num_items, 0.0);
      for (int64_t item = 0; item < dataset_->num_items; ++item) {
        scores[item] = ppr_->Score(request.user, ckg_->ItemNode(item));
      }
      if (RankInto(request.user, scores, job->top_n, &job->response)) {
        job->served = true;
        job->response.tier = ServeTier::kHeuristic;
      }
    } else if (!status.ok()) {
      NoteFailure(job, "heuristic", status);
    } else {
      // The user lies outside the PPR table (streaming can add users past
      // it). This skip used to be silent — no reason, no counter — so the
      // drop to popularity was invisible in both the response and the stats.
      ++job->no_ppr_user;
      KUC_OBS_COUNT("serve.degrade.no_ppr_user", 1);
      AppendReason(&job->response, "heuristic: user " +
                                       std::to_string(request.user) +
                                       " outside the PPR table");
    }
    TimeStage(job, "heuristic", t0);
  }

  // ---- Tier 4: global popularity (infallible) ------------------------------
  if (!job->served) {
    KUC_TRACE_SPAN("serve.popularity");
    const int64_t t0 = clock_->NowMicros();
    // The checkpoint still fires (tests can arm it and see it counted), but
    // the popularity ranking is returned regardless: the last tier never
    // fails, so no admitted request ever gets an empty response.
    const Status status = job->fallback_ctx.Check("popularity");
    if (!status.ok()) NoteFailure(job, "popularity", status);
    RankPopular(request.user, job->top_n, &job->response);
    job->response.tier = ServeTier::kPopularity;
    TimeStage(job, "popularity", t0);
  }
}

void RecServer::RankPopular(int64_t user, int64_t top_n,
                            RecResponse* out) const {
  RankInto(user, popularity_, top_n, out);
}

void RecServer::ForwardStage(const std::vector<ServeJob*>& batch) {
  if (batch.empty()) return;
  KUC_TRACE_SPAN("serve.batch_forward");
  // Predictive batch admission: a job whose remaining deadline budget is
  // below the recent whole-batch forward cost cannot produce a timely full
  // answer — running it anyway would blow past its deadline *inside* the
  // batch and deliver a late response. Degrade it now (the fallback chain is
  // orders of magnitude cheaper) so every response, full or degraded, lands
  // near the deadline at worst. The EWMA starts at 0 (guard off) and stays 0
  // under a frozen FakeClock, so deterministic tests never hit this path.
  const int64_t predicted = batch_forward_ewma_micros_.load(
      std::memory_order_relaxed);
  std::vector<ServeJob*> admitted;
  admitted.reserve(batch.size());
  for (ServeJob* job : batch) {
    if (predicted > 0 && job->deadline.RemainingMicros() < predicted) {
      job->deadline_preempted = true;
      job->full_status = ErrorStatus()
                         << "predicted batch forward (~" << predicted
                         << "us) exceeds the remaining deadline budget";
      job->forward_pending = false;
      KUC_OBS_COUNT("serve.degrade.preempted", 1);
      continue;
    }
    admitted.push_back(job);
  }
  if (admitted.empty()) {
    // The guard preempted the whole batch, so no forward runs and nothing
    // re-measures the estimate. Without decay a single anomalously slow
    // batch (page faults, a scheduling stall) would latch the guard shut
    // forever once deadlines are tighter than the stale estimate. Losing a
    // quarter of the estimate per all-preempted batch lets the full tier
    // probe again within a few requests.
    batch_forward_ewma_micros_.store(predicted - predicted / 4,
                                     std::memory_order_relaxed);
    return;
  }
  std::vector<KucnetForwardWork> work;
  work.reserve(admitted.size());
  for (ServeJob* job : admitted) {
    work.push_back({job->request.user, &job->full_ctx, &job->forward,
                    Status::Ok()});
  }
  // One coalesced multi-user forward on the global pool — the PR 1 batching
  // path, bitwise identical to running the jobs sequentially. Each job keeps
  // its own deadline context, so one mid-batch expiry degrades that job at
  // its next checkpoint without poisoning its batchmates.
  const int64_t t0 = clock_->NowMicros();
  model_->TryForwardMany(&work, /*graphs_extracted=*/true);
  const int64_t elapsed = clock_->NowMicros() - t0;
  const int64_t prev = batch_forward_ewma_micros_.load(
      std::memory_order_relaxed);
  batch_forward_ewma_micros_.store(
      prev == 0 ? elapsed : prev + (elapsed - prev) / 4,
      std::memory_order_relaxed);
  for (size_t i = 0; i < admitted.size(); ++i) {
    admitted[i]->full_status = std::move(work[i].status);
    admitted[i]->forward_pending = false;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.forward_batches;
    stats_.batched_requests += static_cast<int64_t>(admitted.size());
    if (admitted.size() > 1) ++stats_.multi_user_batches;
  }
  KUC_OBS_COUNT("serve.batch.forwards", 1);
  KUC_OBS_COUNT("serve.batch.requests", static_cast<int64_t>(admitted.size()));
  KUC_OBS_GAUGE_SET("serve.batch.last_size",
                    static_cast<int64_t>(admitted.size()));
}

void RecServer::RespondStage(ServeJob* job) {
  KUC_TRACE_SPAN("serve.respond");
  FinishFullTier(job);
  RunFallbackTiers(job);

  RecResponse& response = job->response;
  response.status = ResponseStatus::kOk;
  response.degraded = response.tier != ServeTier::kFull;
  response.total_micros = clock_->NowMicros() - job->submit_micros;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.completed;
    ++stats_.tier_count[static_cast<int>(response.tier)];
    if (response.degraded) ++stats_.degraded;
    if (job->deadline_missed) ++stats_.deadline_missed;
    if (job->deadline_preempted) ++stats_.deadline_preempted;
    stats_.fault_events += job->fault_events;
    stats_.nonfinite_scores += job->nonfinite;
    stats_.no_ppr_user += job->no_ppr_user;
    stats_.latency.Record(response.total_micros);
  }
  KUC_OBS_COUNT("serve.completed", 1);
  if (response.degraded) KUC_OBS_COUNT("serve.degraded", 1);
  if (job->deadline_missed) KUC_OBS_COUNT("serve.deadline_missed", 1);
  if (job->fault_events > 0) {
    KUC_OBS_COUNT("serve.fault_events", job->fault_events);
  }
  obs::Count(std::string("serve.tier.") + ServeTierName(response.tier), 1);
  KUC_OBS_HISTOGRAM("serve.latency_micros", response.total_micros);
  job->promise.set_value(std::move(response));
}

}  // namespace kucnet
