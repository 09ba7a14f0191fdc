#include "obs/trace.h"

#include <algorithm>

#include "util/logging.h"

namespace kucnet::obs {

namespace {

/// The calling thread's index into TraceRecorder buffers, assigned on first
/// span in process order. Distinct from ThisThreadShard(): trace buffers must
/// never be shared between threads, so indices are not recycled mod-N.
std::atomic<int32_t> g_next_tid{0};

int32_t ThisThreadTid() {
  static thread_local const int32_t tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

TraceRecorder& TraceRecorder::Default() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

TraceRecorder::ThreadBuffer& TraceRecorder::LocalBuffer() {
  const int32_t tid = ThisThreadTid();
  std::lock_guard<std::mutex> lock(mu_);
  // buffers_ is indexed by tid; threads may register out of order, so grow
  // with null slots and fill this thread's on first use.
  if (static_cast<size_t>(tid) >= buffers_.size()) {
    buffers_.resize(tid + 1);
  }
  auto& slot = buffers_[tid];
  if (slot == nullptr) {
    slot = std::make_unique<ThreadBuffer>(tid, capacity_);
  }
  return *slot;
}

void TraceRecorder::Push(ThreadBuffer& buffer, const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(buffer.mu);
  const auto capacity = static_cast<int64_t>(buffer.events.size());
  if (capacity == 0) {
    buffer.dropped += 1;
    return;
  }
  if (buffer.size == capacity) buffer.dropped += 1;
  buffer.events[buffer.next] = event;
  buffer.events[buffer.next].seq = buffer.seq++;
  buffer.next = (buffer.next + 1) % capacity;
  buffer.size = std::min(buffer.size + 1, capacity);
}

std::vector<TraceEvent> TraceRecorder::Collect() const {
  std::vector<TraceEvent> events;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    if (buffer == nullptr) continue;
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    const auto capacity = static_cast<int64_t>(buffer->events.size());
    // Oldest-first: the ring starts at `next` when full, 0 otherwise.
    const int64_t begin =
        buffer->size == capacity ? buffer->next : int64_t{0};
    for (int64_t i = 0; i < buffer->size; ++i) {
      events.push_back(buffer->events[(begin + i) % capacity]);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_micros != b.start_micros) {
                return a.start_micros < b.start_micros;
              }
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.seq < b.seq;
            });
  return events;
}

int64_t TraceRecorder::dropped() const {
  int64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    if (buffer == nullptr) continue;
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total = SaturatingAdd(total, buffer->dropped);
  }
  return total;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) {
    if (buffer == nullptr) continue;
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->events.assign(capacity_, TraceEvent{});
    buffer->size = 0;
    buffer->next = 0;
    buffer->dropped = 0;
    buffer->seq = 0;
  }
}

void TraceRecorder::SetCapacityPerThread(int64_t capacity) {
  KUC_CHECK_GE(capacity, 0);
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
}

ScopedSpan::ScopedSpan(const char* name, TraceRecorder& recorder) {
  if (!Enabled()) return;
  recorder_ = &recorder;
  name_ = name;
  start_micros_ = ObsClock().NowMicros();
  recorder_->LocalBuffer().open_depth += 1;
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  TraceRecorder::ThreadBuffer& buffer = recorder_->LocalBuffer();
  buffer.open_depth -= 1;
  TraceEvent event;
  event.name = name_;
  event.start_micros = start_micros_;
  event.dur_micros = ObsClock().NowMicros() - start_micros_;
  event.tid = buffer.tid;
  event.depth = buffer.open_depth;
  recorder_->Push(buffer, event);
}

}  // namespace kucnet::obs
