#ifndef KUCNET_SERVE_PIPELINE_H_
#define KUCNET_SERVE_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/rec_server.h"
#include "util/clock.h"

/// \file
/// The staged dataflow scheduler behind RecServer::Submit and ServeSync.
///
/// PR 3's server ran one-thread-per-request, so concurrent users never
/// shared a forward pass. This pipeline restructures serving into explicit
/// stages — in the spirit of a calculator-graph scheduler — with bounded
/// queues and back-pressure between them:
///
///   Submit ─▶ [admission queue] ─▶ extraction workers ─▶ [batch queue]
///                 (bounded:              (PPR + subgraph      (bounded:
///              queue_capacity,            per request)      2 x batch_
///               full = shed)                                 max_users)
///                                                                │
///             respond ◀─ rank/fallbacks ◀─ batched forward ◀────┘
///            (promise)    (per request)    (one TryForwardMany of
///                                           up to batch_max_users)
///
/// The batch stage coalesces every extracted request available the moment it
/// wakes — up to `batch_max_users` — and may *linger* `batch_linger_micros`
/// on the Clock seam for stragglers, so under a FakeClock tests decide
/// exactly when a partial batch flushes. Back-pressure is physical: a full
/// batch queue blocks extraction, extraction stops draining admission, and
/// admission sheds with kOverloaded — overload degrades at the front door,
/// never as unbounded memory in the middle.
///
/// The pipeline owns threads and queues only; what each stage *does* is
/// RecServer's ExtractStage, ForwardStage and RespondStage, the one
/// execution of the tier chain (full → cached → heuristic → popularity).
/// ServeSync, and Submit on a server with zero workers, run those same
/// stages on the calling thread as a batch of one (`RunInline`): no threads
/// are started, and the same in-flight count covers inline and pipelined
/// jobs.

namespace kucnet {

/// Threads + bounded queues of the staged pipeline. Thread-safe.
class ServePipeline {
 public:
  /// `server` supplies the stage bodies and the options (validated by the
  /// server); it must outlive the pipeline. Starts `options.num_workers`
  /// extraction threads plus one batcher, or none at zero workers.
  ServePipeline(RecServer* server, const Clock* clock);
  ~ServePipeline();

  ServePipeline(const ServePipeline&) = delete;
  ServePipeline& operator=(const ServePipeline&) = delete;

  /// Admission. kOk = accepted: the pipeline fulfills the job's promise (at
  /// zero workers it already has, on this thread). kOverloaded = the
  /// admission queue is at capacity; kShutdown = shutting down. Never blocks
  /// on a full queue.
  ResponseStatus Submit(std::unique_ptr<ServeJob> job);

  /// Runs `job` through every stage on the calling thread as a batch of one,
  /// bypassing admission; the respond stage fulfills its promise.
  void RunInline(ServeJob* job);

  /// Admitted, unstarted requests right now.
  int64_t queue_depth() const;

  /// Requests past admission and not yet responded (extracting, staged for
  /// batching, forwarding, or ranking; inline jobs included).
  int64_t in_flight() const;

  /// True when nothing is admitted, staged, or in flight — the precondition
  /// for mutating model parameters under this pipeline (see
  /// RecServer::Quiesced and ShardRouter::RollingSwap).
  bool Quiesced() const;

  /// Stops admitting, drains every accepted request through all stages,
  /// joins the threads. Idempotent.
  void Shutdown();

 private:
  void ExtractLoop();
  void BatchLoop();
  /// Every stage on the calling thread, then releases the job's in-flight
  /// slot (taken by the caller).
  void RunStages(ServeJob* job);
  /// The batch stage body: the observer seam, one coalesced forward, then
  /// the respond stage per job.
  void ForwardAndRespond(const std::vector<ServeJob*>& jobs);

  RecServer* const server_;
  const RecServerOptions& options_;
  const Clock* clock_;
  /// Ready-queue bound between extraction and the batch stage.
  const int64_t batch_queue_capacity_;

  mutable std::mutex mu_;
  std::condition_variable admitted_cv_;  ///< extraction workers sleep here
  std::condition_variable ready_cv_;     ///< the batcher sleeps here
  std::condition_variable space_cv_;     ///< extraction back-pressure
  std::deque<std::unique_ptr<ServeJob>> admitted_;
  std::deque<std::unique_ptr<ServeJob>> ready_;
  /// Past admission, response not yet delivered (includes `ready_`).
  int64_t in_flight_ = 0;
  bool extract_shutdown_ = false;
  bool batch_shutdown_ = false;

  std::vector<std::thread> extract_workers_;
  std::thread batcher_;
};

}  // namespace kucnet

#endif  // KUCNET_SERVE_PIPELINE_H_
