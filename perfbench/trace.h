#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// Benchmark-side spans. In a traced run the benchmark wraps each call it
/// makes into a layer's public entry point in a span; spans stay in memory
/// and are written out when the run ends. Untraced runs construct the same
/// ScopedSpans against a disabled Tracer, which reads no clock.

namespace perfbench {

/// Nanoseconds on the steady clock since the process started.
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;   ///< id of the enclosing span, -1 for a root
  int64_t request = -1;  ///< request or update ordinal, -1 when none
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(Span span);

  /// Every span recorded so far, in recording order.
  std::vector<Span> spans() const;

  /// Writes the spans as a JSON array of {name, start_ns, end_ns, id,
  /// parent, request} objects. False when the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records [construction, destruction) as one span when the tracer is on.
/// Its parent is the innermost ScopedSpan open on the same thread; its
/// request id is `request`, or the parent's when `request` is -1.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (-1 when the tracer is off).
  int64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
  const ScopedSpan* enclosing_ = nullptr;
};

/// Self time of each span, in the order of `spans`: its duration minus the
/// part of its interval that its direct children cover (overlapping
/// children count once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
