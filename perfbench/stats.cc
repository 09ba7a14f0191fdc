#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

int64_t SamplesBeyond(int64_t n, double q) {
  return n - static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = static_cast<int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = Quantile(samples, 0.5);
  s.p90 = Quantile(samples, 0.9);
  s.p99 = Quantile(samples, 0.99);
  s.p999 = Quantile(samples, 0.999);
  s.max = samples.back();
  return s;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return Quantile(samples, 0.5);
}

std::vector<double> ChunkQuantiles(const std::vector<double>& samples,
                                   int64_t chunks, double q) {
  const auto n = static_cast<int64_t>(samples.size());
  std::vector<double> out;
  if (n == 0 || chunks <= 0) return out;
  chunks = std::min(chunks, n);
  for (int64_t c = 0; c < chunks; ++c) {
    std::vector<double> chunk(samples.begin() + c * n / chunks,
                              samples.begin() + (c + 1) * n / chunks);
    std::sort(chunk.begin(), chunk.end());
    out.push_back(Quantile(chunk, q));
  }
  return out;
}

double QuietQuantile(const std::vector<double>& samples,
                     const Chunking& chunking, double q) {
  const int64_t chunks = std::min(
      chunking.max_chunks, static_cast<int64_t>(samples.size()) /
                               std::max<int64_t>(1, chunking.min_per_chunk));
  if (chunks < 4) {
    std::vector<double> all = samples;
    std::sort(all.begin(), all.end());
    return Quantile(all, q);
  }
  std::vector<double> per_chunk = ChunkQuantiles(samples, chunks, q);
  std::sort(per_chunk.begin(), per_chunk.end());
  return Quantile(per_chunk, chunking.over_chunks);
}

}  // namespace perfbench
