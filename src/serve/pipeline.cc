#include "serve/pipeline.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.h"

namespace kucnet {

namespace {

/// Upper bound on one real-time nap inside the linger window. The window
/// itself is measured on the Clock seam; this only bounds how long a running
/// batcher takes to notice a FakeClock advance.
constexpr int64_t kLingerPollMicros = 200;

}  // namespace

ServePipeline::ServePipeline(RecServer* server, const Clock* clock)
    : server_(server),
      options_(server->options()),
      clock_(clock),
      batch_queue_capacity_(2 * options_.batch_max_users) {
  if (options_.num_workers == 0) return;  // inline execution only
  extract_workers_.reserve(options_.num_workers);
  for (int w = 0; w < options_.num_workers; ++w) {
    extract_workers_.emplace_back([this] { ExtractLoop(); });
  }
  batcher_ = std::thread([this] { BatchLoop(); });
}

ServePipeline::~ServePipeline() { Shutdown(); }

ResponseStatus ServePipeline::Submit(std::unique_ptr<ServeJob> job) {
  const bool run_inline = options_.num_workers == 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Once extraction is shutting down nobody will ever pop this job; reject
    // rather than strand a promise.
    if (extract_shutdown_) return ResponseStatus::kShutdown;
    if (run_inline) {
      // Counted under the same lock as the shutdown check, so Quiesced()
      // can never miss a job that was accepted.
      ++in_flight_;
    } else {
      if (static_cast<int64_t>(admitted_.size()) >= options_.queue_capacity) {
        return ResponseStatus::kOverloaded;
      }
      admitted_.push_back(std::move(job));
      KUC_OBS_GAUGE_SET("serve.queue_depth",
                        static_cast<int64_t>(admitted_.size()));
    }
  }
  if (run_inline) {
    RunStages(job.get());
  } else {
    admitted_cv_.notify_one();
  }
  return ResponseStatus::kOk;
}

void ServePipeline::RunInline(ServeJob* job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++in_flight_;
  }
  RunStages(job);
}

void ServePipeline::RunStages(ServeJob* job) {
  server_->ExtractStage(job);
  if (job->forward_pending) {
    ForwardAndRespond({job});
  } else {
    server_->RespondStage(job);
  }
  std::lock_guard<std::mutex> lock(mu_);
  --in_flight_;
}

int64_t ServePipeline::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(admitted_.size());
}

int64_t ServePipeline::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

bool ServePipeline::Quiesced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_.empty() && in_flight_ == 0;
}

void ServePipeline::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    extract_shutdown_ = true;
  }
  admitted_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& worker : extract_workers_) {
    if (worker.joinable()) worker.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_shutdown_ = true;
  }
  ready_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
}

void ServePipeline::ForwardAndRespond(const std::vector<ServeJob*>& jobs) {
  if (options_.batch_observer) {
    options_.batch_observer(static_cast<int64_t>(jobs.size()));
  }
  server_->ForwardStage(jobs);
  for (ServeJob* job : jobs) server_->RespondStage(job);
}

void ServePipeline::ExtractLoop() {
  for (;;) {
    std::unique_ptr<ServeJob> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      admitted_cv_.wait(
          lock, [this] { return extract_shutdown_ || !admitted_.empty(); });
      if (admitted_.empty()) return;  // shutting down, admission drained
      job = std::move(admitted_.front());
      admitted_.pop_front();
      ++in_flight_;
      KUC_OBS_GAUGE_SET("serve.queue_depth",
                        static_cast<int64_t>(admitted_.size()));
    }
    server_->ExtractStage(job.get());
    if (job->forward_pending) {
      std::unique_lock<std::mutex> lock(mu_);
      // Back-pressure: a full batch queue blocks extraction, which stops
      // draining admission, which sheds. (During shutdown the bound is
      // waived so draining can never deadlock; the batcher empties it.)
      space_cv_.wait(lock, [this] {
        return extract_shutdown_ ||
               static_cast<int64_t>(ready_.size()) < batch_queue_capacity_;
      });
      ready_.push_back(std::move(job));
      lock.unlock();
      ready_cv_.notify_one();
    } else {
      // Pre-expired deadline or failed extraction: no forward to batch, so
      // fallbacks + response run right here on the extraction worker.
      server_->RespondStage(job.get());
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
  }
}

void ServePipeline::BatchLoop() {
  for (;;) {
    std::vector<std::unique_ptr<ServeJob>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_cv_.wait(lock,
                     [this] { return batch_shutdown_ || !ready_.empty(); });
      if (ready_.empty()) {
        if (batch_shutdown_) return;
        continue;  // spurious wake
      }
      const auto take_ready = [&] {
        while (!ready_.empty() && static_cast<int64_t>(batch.size()) <
                                      options_.batch_max_users) {
          batch.push_back(std::move(ready_.front()));
          ready_.pop_front();
        }
      };
      take_ready();
      if (options_.batch_linger_micros > 0) {
        // Linger for stragglers on the Clock seam: the window closes when
        // the *seam* clock passes it (or the batch fills), so FakeClock
        // tests decide exactly which requests share a batch.
        const int64_t linger_until =
            clock_->NowMicros() + options_.batch_linger_micros;
        while (static_cast<int64_t>(batch.size()) < options_.batch_max_users &&
               !batch_shutdown_) {
          const int64_t remaining = linger_until - clock_->NowMicros();
          if (remaining <= 0) break;
          ready_cv_.wait_for(lock, std::chrono::microseconds(std::min<int64_t>(
                                       remaining, kLingerPollMicros)));
          take_ready();
        }
      }
      space_cv_.notify_all();
    }
    std::vector<ServeJob*> jobs;
    jobs.reserve(batch.size());
    for (const auto& job : batch) jobs.push_back(job.get());
    ForwardAndRespond(jobs);
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ -= static_cast<int64_t>(batch.size());
    }
  }
}

}  // namespace kucnet
