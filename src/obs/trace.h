#ifndef KUCNET_OBS_TRACE_H_
#define KUCNET_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

/// \file
/// Scoped trace spans: the "where did this request spend its time" half of
/// the observability subsystem.
///
///   void RecServer::ExtractStage(ServeJob* job) {
///     KUC_TRACE_SPAN("serve.extract");
///     ...
///   }
///
/// A span records its name, start time (from `obs::ObsClock()`), duration
/// and nesting depth into the calling thread's ring buffer when the scope
/// exits. Buffers are per-thread — a span's enter/exit path touches no
/// shared state beyond its own buffer's (uncontended) mutex — and bounded:
/// once full, the oldest events are overwritten and counted as dropped, so
/// tracing can stay on under sustained load without growing memory.
///
/// `TraceRecorder::Collect()` gathers every thread's events into one list
/// sorted by (start, thread, sequence); export.h renders that list as Chrome
/// `chrome://tracing` JSON. Span names must be string literals (or otherwise
/// outlive the recorder): only the pointer is stored.

namespace kucnet::obs {

/// One completed span.
struct TraceEvent {
  const char* name = "";    ///< string literal supplied to the span
  int64_t start_micros = 0;  ///< ObsClock time at scope entry
  int64_t dur_micros = 0;    ///< scope duration (0 under a frozen FakeClock)
  int32_t tid = 0;           ///< stable per-thread index (registration order)
  int32_t depth = 0;         ///< nesting level within the thread (0 = root)
  int64_t seq = 0;           ///< per-thread completion sequence number
};

/// Collects spans from every thread. One process-wide instance
/// (`TraceRecorder::Default()`) backs the KUC_TRACE_SPAN macro.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  static TraceRecorder& Default();

  /// Every thread's events, sorted by (start, tid, seq) — deterministic
  /// even when a FakeClock hands out identical timestamps.
  std::vector<TraceEvent> Collect() const;

  /// Spans discarded because a ring buffer wrapped.
  int64_t dropped() const;

  /// Clears all buffered events and applies the current per-thread capacity
  /// to existing buffers. Call between tests; not while spans are open.
  void Clear();

  /// Ring capacity for new (and, after Clear(), existing) thread buffers.
  void SetCapacityPerThread(int64_t capacity);

 private:
  friend class ScopedSpan;

  struct ThreadBuffer {
    explicit ThreadBuffer(int32_t tid_in, int64_t capacity)
        : tid(tid_in), events(capacity) {}

    mutable std::mutex mu;
    int32_t tid;
    std::vector<TraceEvent> events;  ///< ring storage
    int64_t size = 0;                ///< valid events (<= capacity)
    int64_t next = 0;                ///< ring write index
    int64_t dropped = 0;
    int64_t seq = 0;
    int32_t open_depth = 0;  ///< touched only by the owning thread
  };

  /// The calling thread's buffer in this recorder (created on first use).
  ThreadBuffer& LocalBuffer();

  void Push(ThreadBuffer& buffer, const TraceEvent& event);

  mutable std::mutex mu_;  ///< guards buffers_ and capacity_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  int64_t capacity_ = 8192;
};

/// RAII span. Captures the start time at construction when observability is
/// enabled; records one TraceEvent at destruction. A span that starts while
/// observability is disabled stays inert even if tracing is enabled before
/// it closes (and vice versa: an open span always closes its depth).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name,
                      TraceRecorder& recorder = TraceRecorder::Default());
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_ = nullptr;  ///< null = inert
  const char* name_ = "";
  int64_t start_micros_ = 0;
};

}  // namespace kucnet::obs

#if KUCNET_OBS

#define KUC_OBS_CONCAT_INNER(a, b) a##b
#define KUC_OBS_CONCAT(a, b) KUC_OBS_CONCAT_INNER(a, b)

/// Traces the enclosing scope under `name` (a string literal).
#define KUC_TRACE_SPAN(name) \
  ::kucnet::obs::ScopedSpan KUC_OBS_CONCAT(kuc_obs_span_, __LINE__)(name)

#else  // !KUCNET_OBS

#define KUC_TRACE_SPAN(name) ((void)0)

#endif  // KUCNET_OBS

#endif  // KUCNET_OBS_TRACE_H_
