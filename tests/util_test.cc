#include <atomic>
#include <cstdio>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "util/clock.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kucnet {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next64() == b.Next64());
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.Uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = rng.UniformInt(10);
    EXPECT_GE(x, 0);
    EXPECT_LT(x, 10);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit with overwhelming probability
}

TEST(RngTest, NormalMoments) {
  Rng rng(123);
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalProportional) {
  Rng rng(9);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const int64_t n = 1 + rng.UniformInt(100);
    const int64_t k = rng.UniformInt(n + 1);
    auto sample = rng.SampleWithoutReplacement(n, k);
    EXPECT_EQ(static_cast<int64_t>(sample.size()), k);
    std::set<int64_t> distinct(sample.begin(), sample.end());
    EXPECT_EQ(static_cast<int64_t>(distinct.size()), k);
    for (int64_t x : sample) {
      EXPECT_GE(x, 0);
      EXPECT_LT(x, n);
    }
  }
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent(3);
  Rng a = parent.Fork(0);
  Rng b = parent.Fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next64() == b.Next64());
  EXPECT_LT(same, 5);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.Shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h = 0;
  ParallelFor(pool, 1000, [&](int64_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForSum) {
  ThreadPool pool(8);
  std::atomic<int64_t> total{0};
  ParallelFor(pool, 10000, [&](int64_t i) { total += i; });
  EXPECT_EQ(total.load(), 10000LL * 9999 / 2);
}

TEST(ThreadPoolTest, EmptyAndSingle) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  ParallelFor(pool, 0, [&](int64_t) { count++; });
  EXPECT_EQ(count.load(), 0);
  ParallelFor(pool, 1, [&](int64_t) { count++; });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> count{0};
    ParallelFor(pool, 100, [&](int64_t) { count++; });
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(StopwatchTest, MeasuresElapsedOnRealClock) {
  Stopwatch timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 1000000; ++i) sink = sink + i * 0.5;
  EXPECT_GE(timer.Seconds(), 0.0);
  const double t1 = timer.Millis();
  const double t2 = timer.Millis();
  EXPECT_GE(t2, t1);  // monotonic
  timer.Reset();
  EXPECT_LE(timer.Millis(), t2);  // reset restarts the clock
}

TEST(StopwatchTest, DeterministicUnderFakeClock) {
  FakeClock clock(1000);
  Stopwatch timer(clock);
  EXPECT_EQ(timer.ElapsedMicros(), 0);
  clock.AdvanceMicros(2500);
  EXPECT_EQ(timer.ElapsedMicros(), 2500);
  EXPECT_DOUBLE_EQ(timer.Millis(), 2.5);
  EXPECT_DOUBLE_EQ(timer.Seconds(), 0.0025);
  timer.Reset();
  EXPECT_EQ(timer.ElapsedMicros(), 0);
  clock.AdvanceMicros(7);
  EXPECT_EQ(timer.ElapsedMicros(), 7);
}

TEST(IoTest, PairAndTripletRoundTrip) {
  const std::string dir = ::testing::TempDir();
  const std::string pair_path = dir + "/pairs.txt";
  const std::string trip_path = dir + "/triplets.txt";
  std::vector<std::array<int64_t, 2>> pairs = {{0, 5}, {1, 3}, {2, 2}};
  std::vector<std::array<int64_t, 3>> triplets = {{0, 1, 2}, {9, 8, 7}};
  ASSERT_TRUE(TryWritePairs(pair_path, pairs).ok());
  ASSERT_TRUE(TryWriteTriplets(trip_path, triplets).ok());
  EXPECT_TRUE(FileExists(pair_path));
  std::vector<std::array<int64_t, 2>> read_pairs;
  std::vector<std::array<int64_t, 3>> read_triplets;
  ASSERT_TRUE(TryReadPairs(pair_path, &read_pairs).ok());
  ASSERT_TRUE(TryReadTriplets(trip_path, &read_triplets).ok());
  EXPECT_EQ(read_pairs, pairs);
  EXPECT_EQ(read_triplets, triplets);
}

TEST(IoTest, SkipsCommentsAndBlankLines) {
  const std::string path = ::testing::TempDir() + "/commented.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("# header comment\n\n1 2\n\n# another\n3 4\n", f);
    fclose(f);
  }
  std::vector<std::array<int64_t, 2>> pairs;
  ASSERT_TRUE(TryReadPairs(path, &pairs).ok());
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0][0], 1);
  EXPECT_EQ(pairs[1][1], 4);
}

TEST(IoTest, MissingFileDetected) {
  EXPECT_FALSE(FileExists("/nonexistent/definitely/missing.txt"));
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ KUC_CHECK(1 == 2) << "context"; }, "check failed");
  EXPECT_DEATH({ KUC_CHECK_EQ(3, 4); }, "check failed");
}

TEST(LoggingTest, CheckSuccessIsSilent) {
  KUC_CHECK(true);
  KUC_CHECK_EQ(1, 1);
  KUC_CHECK_LT(1, 2);
  KUC_CHECK_LE(2, 2);
  KUC_CHECK_GT(3, 2);
  KUC_CHECK_GE(3, 3);
  KUC_CHECK_NE(1, 2);
}

}  // namespace
}  // namespace kucnet
