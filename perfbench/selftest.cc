// Self-tests of the benchmark's own arithmetic:
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <vector>

#include "schedule.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Stats, QuantilesInterpolateBetweenRanks) {
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Quantile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(sorted, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(Quantile(sorted, 0.9), 9.1);
  EXPECT_DOUBLE_EQ(Quantile(sorted, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({42.0}, 0.99), 42.0);
}

TEST(Stats, SummarySortsRawSamplesAndCountsThem) {
  std::vector<double> samples;
  for (int k = 1000; k >= 1; --k) samples.push_back(k);
  const Summary s = Summarize(samples);
  EXPECT_EQ(s.n, 1000);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
  EXPECT_DOUBLE_EQ(s.p90, 900.1);
  EXPECT_DOUBLE_EQ(s.p99, 990.01);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  // Not a power-of-two bucket bound: a p50 of 3 ms reads as 3, not 4095.
  EXPECT_DOUBLE_EQ(Summarize({3.0, 3.0, 3.0}).p50, 3.0);
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, TailSupportNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9);
  EXPECT_EQ(SamplesBeyond(10000, 0.999), 10);
  EXPECT_EQ(SamplesBeyond(100, 0.5), 50);
}

TEST(Stats, ChunksAreConsecutiveRunsOfEqualCount) {
  std::vector<double> samples;
  for (int k = 1; k <= 10; ++k) samples.push_back(k);
  // Chunks {1,2,3}, {4,5,6}, {7,8,9,10}.
  EXPECT_EQ(ChunkQuantiles(samples, 3, 0.5),
            (std::vector<double>{2.0, 5.0, 8.5}));
  EXPECT_EQ(ChunkQuantiles(samples, 3, 1.0),
            (std::vector<double>{3.0, 6.0, 10.0}));
  EXPECT_EQ(ChunkQuantiles(samples, 20, 0.5).size(), 10u);
  EXPECT_TRUE(ChunkQuantiles({}, 3, 0.5).empty());
}

TEST(Stats, QuietQuantileIgnoresEpisodesOverMostChunks) {
  std::vector<double> samples;
  for (int64_t chunk = 0; chunk < 8; ++chunk) {
    for (int64_t k = 0; k < 100; ++k) {
      // Chunks 1, 2, 4, 5 and 7 fall in an interference episode: every
      // sample in them is three to ten times slower.
      const double slow = chunk == 1 || chunk == 2 || chunk == 7 ? 10.0
                          : chunk == 4 || chunk == 5         ? 3.0
                                                               : 1.0;
      samples.push_back(slow * static_cast<double>(1 + k % 10));
    }
  }
  // Per-chunk p50s are 5.5 (x3), 16.5 (x2), 55 (x3): the lower quartile of
  // those eight lies on the quiet chunks.
  EXPECT_DOUBLE_EQ(QuietQuantile(samples, {8, 100, 0.25}, 0.5), 5.5);
  EXPECT_NEAR(QuietQuantile(samples, {8, 100, 0.25}, 0.9), 9.1, 1e-12);
  // The plain quantiles are the episodes'.
  EXPECT_GT(Summarize(samples).p50, 10.0);
  // A slower code path moves every chunk, the quiet ones too.
  std::vector<double> slower = samples;
  for (double& v : slower) v *= 1.2;
  EXPECT_DOUBLE_EQ(QuietQuantile(slower, {8, 100, 0.25}, 0.5), 5.5 * 1.2);
  // Chunks shrink in number to hold 200 samples: four chunks, each but the
  // third half quiet and half ten times slower, p50s 10, 10, 16.5, 10.
  EXPECT_DOUBLE_EQ(QuietQuantile(samples, {8, 200, 0.25}, 0.5), 10.0);
  // Fewer than four chunks: the plain quantile.
  EXPECT_DOUBLE_EQ(QuietQuantile(samples, {8, 300, 0.25}, 0.5),
                   Summarize(samples).p50);
  EXPECT_DOUBLE_EQ(QuietQuantile({1.0, 3.0}, {12, 1, 0.25}, 0.5), 2.0);
}

TEST(Stats, LowerDecileOverChunksIgnoresLongerEpisodes) {
  // Twenty chunks of ten samples; all but chunks 0, 7 and 13 fall in an
  // episode that makes every sample four times slower.
  std::vector<double> samples;
  for (int chunk = 0; chunk < 20; ++chunk) {
    const bool quiet = chunk == 0 || chunk == 7 || chunk == 13;
    for (int k = 0; k < 10; ++k) samples.push_back(quiet ? 1.0 : 4.0);
  }
  EXPECT_DOUBLE_EQ(QuietQuantile(samples, {20, 10, 0.1}, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(QuietQuantile(samples, {20, 10, 0.25}, 0.5), 4.0);
}

TEST(Schedule, SameSeedSameScheduleOtherSeedOther) {
  std::vector<int64_t> users = {3, 5, 7, 11, 13};
  std::vector<Arrival> a(1000);
  std::vector<Arrival> b(1000);
  std::vector<Arrival> c(1000);
  AssignZipfKeys(1, users, 0.9, &a);
  AssignZipfKeys(1, users, 0.9, &b);
  AssignZipfKeys(2, users, 0.9, &c);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Schedule, FixedRateArrivalsAreEvenlySpacedWithASeededPhase) {
  const std::vector<Arrival> a = FixedRateArrivals(3, 10.0, 8.0);
  const std::vector<Arrival> b = FixedRateArrivals(3, 10.0, 8.0);
  const std::vector<Arrival> c = FixedRateArrivals(4, 10.0, 8.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // One every 100 ms: 80 in 8 s, each keyed by its ordinal.
  ASSERT_EQ(a.size(), 80u);
  EXPECT_LT(a.front().at_us, 100'000);
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].key, static_cast<int64_t>(k));
    if (k > 0) EXPECT_NEAR(a[k].at_us - a[k - 1].at_us, 100'000, 1);
  }
}

TEST(Schedule, ZipfKeysAreSkewedAndDrawnFromTheIds) {
  std::vector<int64_t> ids;
  for (int64_t k = 0; k < 100; ++k) ids.push_back(1000 + k);
  std::vector<Arrival> a(10000);
  AssignZipfKeys(4, ids, 1.0, &a);
  std::vector<int64_t> count(100, 0);
  for (const Arrival& x : a) {
    ASSERT_GE(x.key, 1000);
    ASSERT_LT(x.key, 1100);
    ++count[x.key - 1000];
  }
  int64_t top = 0;
  for (const int64_t c : count) top = std::max(top, c);
  // Rank 1 of Zipf(1) over 100 ids carries ~19% of the mass; uniform is 1%.
  EXPECT_GT(top, static_cast<int64_t>(a.size()) / 10);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      {"parent", 0, 100, 0, -1, 7},
      {"a", 10, 30, 1, 0, 7},
      {"b", 20, 40, 2, 0, 7},    // overlaps a: [10, 40) counts once
      {"c", 90, 120, 3, 0, 7},   // clipped to the parent: [90, 100)
      {"grandchild", 11, 12, 4, 1, 7},
      {"d", 50, 60, 5, 0, 7},    // disjoint from a and b
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 30 - 10 - 10);
  EXPECT_EQ(self[1], 20 - 1);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[4], 1);
  EXPECT_EQ(self[5], 10);
}

TEST(Trace, SpansNestOnTheirThreadAndInheritTheRequest) {
  Tracer off(false);
  { ScopedSpan span(&off, "x"); }
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true);
  {
    ScopedSpan parent(&on, "p", 3);
    ScopedSpan child(&on, "c");
  }
  { ScopedSpan later(&on, "q"); }
  const std::vector<Span> spans = on.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "c");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[0].request, 3);
  EXPECT_EQ(spans[1].parent, -1);
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
  EXPECT_EQ(spans[2].parent, -1);  // the closed parent is no longer open
  EXPECT_EQ(spans[2].request, -1);
}

}  // namespace
}  // namespace perfbench
