#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%lld,\"parent\":%lld,\"request\":%lld}%s\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

namespace {
thread_local const ScopedSpan* open_span = nullptr;
}  // namespace

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, int64_t request)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  span_.id = -1;
  if (tracer_ == nullptr) return;
  enclosing_ = open_span;
  open_span = this;
  span_.name = name;
  span_.id = tracer_->NewId();
  if (enclosing_ != nullptr) {
    span_.parent = enclosing_->span_.id;
    span_.request = enclosing_->span_.request;
  }
  if (request >= 0) span_.request = request;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  open_span = enclosing_;
  tracer_->Record(std::move(span_));
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index;
  for (size_t k = 0; k < spans.size(); ++k) index[spans[k].id] = k;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t k = 0; k < spans.size(); ++k) {
    std::vector<std::pair<int64_t, int64_t>>& c = children[k];
    std::sort(c.begin(), c.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : c) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[k] = (spans[k].end_ns - spans[k].start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
