#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

/// \file
/// Order statistics over raw samples. Every timing the benchmark reports is
/// computed here from the sorted samples themselves — never from histogram
/// buckets, whose bounds would quantize a p50 to the next power of two.

namespace perfbench {

/// Quantile `q` in [0, 1] of ascending `sorted` samples, by linear
/// interpolation between the two closest ranks (numpy's default). 0 for no
/// samples.
double Quantile(const std::vector<double>& sorted, double q);

/// Samples strictly above the `q` quantile: n - ceil(q * n). A percentile is
/// a supported tail estimate when at least ten samples lie beyond it.
int64_t SamplesBeyond(int64_t n, double q);

struct Summary {
  int64_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
};

/// Sorts `samples` and reads off the summary.
Summary Summarize(std::vector<double> samples);

/// Median of `samples` (0 for none).
double Median(std::vector<double> samples);

/// Splits `samples`, in the order they were taken, into `chunks` runs of
/// consecutive samples of equal count (to within one) and returns the `q`
/// quantile of each run, in order.
std::vector<double> ChunkQuantiles(const std::vector<double>& samples,
                                   int64_t chunks, double q);

/// How QuietQuantile cuts and reads samples.
struct Chunking {
  int64_t max_chunks = 12;
  int64_t min_per_chunk = 20;
  /// Which quantile of the per-chunk percentiles is reported.
  double over_chunks = 0.25;
};

/// The `chunking.over_chunks` quantile, over consecutive chunks of `samples`
/// (in the order they were taken), of each chunk's `q` quantile: up to
/// `max_chunks` chunks, fewer where needed to give each at least
/// `min_per_chunk` samples; with fewer than four chunks, the plain `q`
/// quantile of all samples.
///
/// On a shared virtual machine, interference from other tenants (hypervisor
/// steal, a busy sibling hyperthread) comes in episodes of seconds to
/// minutes and only ever adds time. The chunks an episode covers read high,
/// and a low quantile over chunks reads what the code costs when the host
/// lets it run: with the lower quartile, an episode over up to three
/// quarters of a run leaves the figure where it was. A slower code path
/// moves every chunk, the quiet ones too, so it still shows.
double QuietQuantile(const std::vector<double>& samples,
                     const Chunking& chunking, double q);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
