#ifndef KUCNET_SERVE_REC_SERVER_H_
#define KUCNET_SERVE_REC_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/kucnet.h"
#include "obs/metrics.h"
#include "serve/score_cache.h"
#include "util/clock.h"
#include "util/fault.h"

/// \file
/// The deadline-aware serving layer.
///
/// Training (PR 2) survives crashes; this subsystem makes *queries* survive
/// overload, deadlines, and faults. A `RecServer` answers top-N requests
/// through a bounded admission queue — when the queue is full the request is
/// rejected immediately with `kOverloaded`, never queued unboundedly — and
/// executes each admitted request under a per-request `Deadline` anchored at
/// admission time. Every request flows through the stages of one dataflow
/// pipeline (serve/pipeline.h): extraction builds the user's pruned
/// subgraph, then a batch stage coalesces up to `batch_max_users` concurrent
/// requests into one multi-user `Kucnet::TryForwardMany` — bitwise identical
/// to sequential forwards — before per-request ranking and response.
/// `ServeSync`, and `Submit` on a server with zero workers, run the same
/// stages on the calling thread as a batch of one. The expensive stages
/// (PPR scoring, subgraph expansion, per-layer message passing) are
/// cooperatively cancellable via `ExecContext` checkpoints; when a stage
/// misses the deadline or an injected fault fires, the server *degrades*
/// through an explicit fallback chain instead of failing:
///
///   full KUCNet forward  →  cached scores (LRU, staleness-bounded)
///                        →  PPR heuristic (the PprRec ranking)
///                        →  global popularity (precomputed, infallible)
///
/// Deadlines stay per-request inside a batch: a request that expires
/// mid-batch degrades individually at its own next checkpoint without
/// poisoning its batchmates. Every response carries the tier that produced
/// it plus per-stage latency; `ServerStats` exposes
/// admitted/shed/deadline-missed/degraded/batching counters and a latency
/// histogram. All time flows through the `Clock` seam, so under a
/// `FakeClock` every timeout path — including the batch linger window — is
/// deterministic, and the `FaultInjector` seam lets tests fail any stage of
/// any tier on the Nth hit.

namespace kucnet {

/// Terminal status of a request.
enum class ResponseStatus {
  kOk,          ///< served (possibly degraded; see RecResponse::tier)
  kOverloaded,  ///< shed at admission: queue full
  kShutdown,    ///< rejected: server shutting down
};

/// Which rung of the fallback chain produced the scores.
enum class ServeTier {
  kFull = 0,        ///< complete KUCNet forward pass
  kCached = 1,      ///< LRU score cache (staleness-bounded)
  kHeuristic = 2,   ///< PPR scores, PprRec-style
  kPopularity = 3,  ///< global popularity ranking
};
inline constexpr int kNumServeTiers = 4;

/// Display name of a tier ("full", "cached", "heuristic", "popularity").
const char* ServeTierName(ServeTier tier);

/// One top-N recommendation request.
struct RecRequest {
  int64_t user = 0;
  int64_t top_n = 0;            ///< 0 = server default
  int64_t deadline_micros = 0;  ///< latency budget; 0 = server default
};

/// One ranked recommendation.
struct ScoredItem {
  int64_t item;
  double score;
};

/// Wall-clock (or FakeClock) cost of one pipeline stage of a response.
struct StageTiming {
  std::string stage;  ///< "full", "cache", "heuristic", "popularity"
  int64_t micros;
};

/// What the server returns for every request.
struct RecResponse {
  ResponseStatus status = ResponseStatus::kOk;
  ServeTier tier = ServeTier::kFull;
  /// True when a higher tier failed and a fallback answered (tier != kFull).
  bool degraded = false;
  /// Ranked recommendations, best first. Non-empty for every kOk response.
  std::vector<ScoredItem> items;
  /// Per-stage latency of the tiers this request attempted, in order.
  std::vector<StageTiming> stage_micros;
  /// Why each failed tier was skipped (empty for non-degraded responses).
  std::string degrade_reason;
  /// Admission-to-completion latency (includes queue and batch wait).
  int64_t total_micros = 0;
  /// Age of the cache entry served, for kCached responses (else -1).
  int64_t cache_age_micros = -1;
};

/// Power-of-two-bucketed latency histogram (microseconds): the shared
/// observability histogram type, whose default bucket layout (bounds
/// 2^b - 1 plus an explicit +Inf bucket, saturating counts) matches the
/// serving layer's historical bucketing.
using LatencyHistogram = obs::HistogramData;

/// Observable behavior of the server since construction.
struct ServerStats {
  int64_t submitted = 0;  ///< Submit/ServeSync calls
  int64_t admitted = 0;   ///< accepted into the queue (or served sync)
  int64_t shed = 0;       ///< rejected kOverloaded at admission
  int64_t completed = 0;  ///< responses produced for admitted requests
  /// Requests whose full tier was abandoned on deadline grounds — the
  /// deadline expired mid-tier, or the batch stage preempted the forward
  /// because it could no longer finish in time (see deadline_preempted).
  int64_t deadline_missed = 0;
  /// Stage failures attributed to injected faults (across all tiers;
  /// reconciles with FaultInjector::faults_fired in tests).
  int64_t fault_events = 0;
  /// Full-tier forward passes rejected because they produced non-finite
  /// scores (e.g. serving from a mid-divergence checkpoint). Such output is
  /// never cached and never served; the request falls through the degrade
  /// chain (cached → PPR → popularity) instead.
  int64_t nonfinite_scores = 0;
  /// Cache entries deposited proactively (startup warm-up or post-swap
  /// rewarm), outside any request.
  int64_t cache_warmed = 0;
  /// Responses produced by a tier below full.
  int64_t degraded = 0;
  /// Requests whose heuristic tier was skipped because the user lies outside
  /// the PPR table (possible once streaming adds users past it); the request
  /// fell through to popularity with the reason noted.
  int64_t no_ppr_user = 0;
  /// Batched full-tier forward executions (pipeline batch stage).
  int64_t forward_batches = 0;
  /// Requests whose full-tier forward ran inside a batch.
  int64_t batched_requests = 0;
  /// Batches that actually coalesced >= 2 concurrent requests.
  int64_t multi_user_batches = 0;
  /// Requests the batch stage degraded *preemptively*: their remaining
  /// deadline budget was below the recent (EWMA) batch-forward cost, so
  /// starting the forward could only have produced a late answer. These
  /// respond on time from the fallback chain instead of blowing past their
  /// deadline inside a batch.
  int64_t deadline_preempted = 0;
  /// Responses per tier, indexed by ServeTier.
  std::array<int64_t, kNumServeTiers> tier_count{};
  LatencyHistogram latency;

  /// Adds `other`'s counters and latency histogram into this one, saturating
  /// at the int64 extremes. Merging stats from multiple servers (or
  /// accumulation epochs) can therefore never wrap into nonsense.
  void MergeFrom(const ServerStats& other);
};

/// Knobs of the server.
struct RecServerOptions {
  /// Extraction workers of the staged pipeline. 0 = no threads: Submit and
  /// ServeSync run the pipeline's stages inline on the calling thread.
  int num_workers = 2;
  /// Maximum queued (admitted, unstarted) requests; beyond this Submit
  /// rejects with kOverloaded instead of blocking.
  int64_t queue_capacity = 64;
  int64_t default_deadline_micros = 50'000;
  /// List length when a request leaves top_n at 0. Every ranked list leaves
  /// out the user's training items (do not re-recommend consumed items)
  /// unless that would empty it.
  int64_t default_top_n = 20;
  /// Proactive cache warm-up at construction: full forward passes for the
  /// `warm_cache_users` most active users (by training interaction count)
  /// are deposited into the score cache before the first request, so early
  /// degraded requests land on cached scores instead of the PPR heuristic.
  /// 0 disables warming.
  int64_t warm_cache_users = 0;
  /// Batch stage: up to this many concurrently-admitted requests coalesce
  /// into one multi-user forward (Kucnet::TryForwardMany). 1 keeps the
  /// staged pipeline but never coalesces. The queue between extraction and
  /// the batch stage holds 2 x batch_max_users; when full, extraction blocks
  /// (back-pressure propagates to admission, which sheds).
  int64_t batch_max_users = 8;
  /// How long the batch stage lingers for more extracted requests before
  /// forwarding a partial batch, measured on the Clock seam
  /// (FakeClock-deterministic). 0 = forward whatever is ready immediately.
  int64_t batch_linger_micros = 0;
  /// Test seam: called by the batch stage after assembling each batch
  /// (outside pipeline locks, before the forward) with the batch size.
  std::function<void(int64_t)> batch_observer;
  ScoreCacheOptions cache;
  /// Time seam (null = the real clock). Tests pass a FakeClock.
  const Clock* clock = nullptr;
  /// Fault seam (null = no injection). Tests arm stages here.
  FaultInjector* fault = nullptr;
};

/// One request's state as it moves through the pipeline's stages.
/// Produced by RecServer, scheduled by ServePipeline (serve/pipeline.h).
struct ServeJob {
  RecRequest request;
  int64_t submit_micros = 0;
  std::promise<RecResponse> promise;  ///< fulfilled by the respond stage

  // Stage state, owned by the RecServer stage bodies.
  int64_t top_n = 0;
  Deadline deadline;
  ExecContext full_ctx;
  ExecContext fallback_ctx;
  RecResponse response;
  bool served = false;
  bool deadline_missed = false;
  int64_t fault_events = 0;
  int64_t nonfinite = 0;
  int64_t no_ppr_user = 0;
  int64_t full_t0 = 0;  ///< full-tier start; timed when the tier finishes
  /// The full tier was ruled out before extraction began (a user the model
  /// has no graph for, or a deadline already expired); already noted and
  /// timed.
  bool full_skipped = false;
  /// Batch stage skipped this job's forward because the predicted cost
  /// exceeded its remaining deadline budget (see ForwardStage).
  bool deadline_preempted = false;
  int64_t cache_generation = 0;
  /// Extraction succeeded and the forward half still has to run — the job
  /// belongs in the batch stage.
  bool forward_pending = false;
  KucnetForward forward;
  Status full_status;
};

class ServePipeline;

/// The serving front end. The model, dataset, CKG and PPR table must outlive
/// the server. Stages score concurrently; `Kucnet::TryForward` (and its
/// split halves) are const and thread-safe for inference.
class RecServer {
 public:
  RecServer(const Kucnet* model, const Dataset* dataset, GraphRef ckg,
            const PprTable* ppr, RecServerOptions options);
  ~RecServer();

  RecServer(const RecServer&) = delete;
  RecServer& operator=(const RecServer&) = delete;

  /// Admission point. Returns immediately: either a future the pipeline will
  /// fulfill, or an already-satisfied future carrying kOverloaded /
  /// kShutdown. Never blocks on a full queue. With `num_workers == 0` the
  /// request runs through the stages inline on the calling thread and the
  /// returned future is already satisfied.
  std::future<RecResponse> Submit(const RecRequest& request);

  /// Runs the pipeline's stages for one request on the calling thread as a
  /// batch of one, bypassing admission (no queue bound, no shutdown check).
  /// Used by tests that need strict single-threaded determinism and by
  /// benchmark replays.
  RecResponse ServeSync(const RecRequest& request);

  /// Rejects new submissions, drains queued requests through every stage,
  /// joins the pipeline threads. Idempotent; also called by the destructor.
  void Shutdown();

  /// Snapshot of the counters (consistent under the stats mutex).
  ServerStats stats() const;

  /// Proactively computes and caches full-tier scores for the `max_users`
  /// most active users (by training interaction count, ties by id). Used at
  /// construction (options.warm_cache_users) and after a model hot-swap to
  /// repopulate the invalidated cache. Non-finite forward output is skipped,
  /// never cached. Returns the number of users warmed.
  int64_t WarmCache(int64_t max_users);

  /// Invalidates every cached score by bumping the cache generation: called
  /// when the model behind this server is hot-swapped, so no request —
  /// including one retried here from a failed sibling shard — can be served
  /// scores the previous model produced.
  void InvalidateCache();

  /// Invalidates only the given users' cached scores (per-user generation
  /// bump; see ScoreCache::InvalidateUser). Called by the streaming layer
  /// with exactly the users whose PPR neighborhoods a graph update touched,
  /// so untouched users keep serving from cache.
  void InvalidateUsers(const std::vector<int64_t>& users);

  /// Ranks the infallible last tier into `out->items`: the `top_n` items
  /// with the most training interactions (ties by id), `user`'s training
  /// items excluded unless that empties the list. Any user id is accepted.
  /// Pure and thread-safe; ShardRouter answers from it when no shard can.
  void RankPopular(int64_t user, int64_t top_n, RecResponse* out) const;

  /// Queued (admitted, unstarted) requests right now.
  int64_t queue_depth() const;

  /// Requests currently being executed (inline on a caller's thread or
  /// anywhere inside the pipeline past admission). `queue_depth() == 0`
  /// alone does NOT mean idle — a popped request may still be reading model
  /// parameters.
  int64_t in_flight() const;

  /// True when no request is queued or in flight: the precondition for
  /// mutating the model's parameters out from under this server (see
  /// ShardRouter::RollingSwap, which drains on exactly this).
  bool Quiesced() const;

  const ScoreCache& cache() const { return cache_; }
  const RecServerOptions& options() const { return options_; }

 private:
  friend class ServePipeline;

  // ---- Stage bodies, driven by ServePipeline --------------------------------
  /// Resolves per-request knobs (top_n, the admission-anchored deadline, the
  /// execution contexts), then the full tier's front half: user and
  /// deadline pre-checks, cache-generation snapshot, subgraph extraction.
  /// Leaves `forward_pending` set iff the forward half still has to run.
  void ExtractStage(ServeJob* job);
  /// One coalesced multi-user forward for every job the predictive deadline
  /// guard admits.
  void ForwardStage(const std::vector<ServeJob*>& batch);
  /// Full-tier back half, fallback tiers, stats; fulfills the promise.
  void RespondStage(ServeJob* job);

  /// Full-tier back half: stage timing, nonfinite gate, cache deposit,
  /// ranking. Requires the forward half to have run (or failed).
  void FinishFullTier(ServeJob* job);
  /// Tiers 2-4 (cached → heuristic → popularity). No-op when already served.
  void RunFallbackTiers(ServeJob* job);
  void NoteFailure(ServeJob* job, const char* tier,
                   const Status& status) const;
  void TimeStage(ServeJob* job, const char* stage, int64_t start_micros) const;

  /// Ranks `scores` (indexed by item id) into `out->items`: top-N by score,
  /// ties by item id, the user's training items excluded unless that would
  /// empty the list. Returns false iff there are no items at all.
  bool RankInto(int64_t user, const std::vector<double>& scores,
                int64_t top_n, RecResponse* out) const;

  const Kucnet* model_;
  const Dataset* dataset_;
  GraphRef ckg_;
  const PprTable* ppr_;
  RecServerOptions options_;
  const Clock* clock_;

  ScoreCache cache_;
  /// Sorted training items per user (binary searched during ranking).
  std::vector<std::vector<int64_t>> train_items_;
  /// Training interactions per item: the scores of the popularity tier.
  std::vector<double> popularity_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;

  /// EWMA of recent whole-batch forward duration on the Clock seam,
  /// maintained by the batch stage and consulted before each batch: a job
  /// whose remaining deadline budget is below this estimate is degraded
  /// preemptively instead of starting a forward that can only finish late.
  /// 0 = no batch measured yet (the guard is off) — which is also the steady
  /// state under a frozen FakeClock, keeping deterministic tests exact.
  std::atomic<int64_t> batch_forward_ewma_micros_{0};

  /// Declared last: its threads call back into this object, so it must die
  /// first (Shutdown joins them anyway).
  std::unique_ptr<ServePipeline> pipeline_;
};

}  // namespace kucnet

#endif  // KUCNET_SERVE_REC_SERVER_H_
