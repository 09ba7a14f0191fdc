// Tests for the observability subsystem (src/obs/): metric determinism and
// bucket-edge behavior, saturating merges, span trees under FakeClock,
// exporter output, concurrent registry/recorder stress (run under TSan via
// the `obs` ctest label), and the instrumentation's no-perturbation
// guarantees on the serving pipeline.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/kucnet.h"
#include "data/synthetic.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/rec_server.h"
#include "serve/score_cache.h"
#include "store/container.h"
#include "store/web_scale.h"
#include "util/fs.h"
#include "util/clock.h"
#include "util/thread_pool.h"

namespace kucnet {
namespace {

constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

/// Every test runs with a clean process-wide registry/recorder and restores
/// the disabled-by-default state, so tests cannot observe each other.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::DefaultRegistry().ResetForTest();
    obs::TraceRecorder::Default().Clear();
  }
  void TearDown() override {
    obs::SetClockForTest(nullptr);
    obs::SetEnabled(false);
    obs::DefaultRegistry().ResetForTest();
    obs::TraceRecorder::Default().Clear();
  }
};

// ---- Minimal JSON syntax checker ---------------------------------------------
// Just enough of RFC 8259 to assert "this exports as valid JSON" without a
// third-party parser.

bool SkipJsonValue(const std::string& s, size_t* i);

void SkipWs(const std::string& s, size_t* i) {
  while (*i < s.size() && (s[*i] == ' ' || s[*i] == '\n' || s[*i] == '\t' ||
                           s[*i] == '\r')) {
    ++*i;
  }
}

bool SkipJsonString(const std::string& s, size_t* i) {
  if (*i >= s.size() || s[*i] != '"') return false;
  ++*i;
  while (*i < s.size() && s[*i] != '"') {
    if (s[*i] == '\\') ++*i;
    ++*i;
  }
  if (*i >= s.size()) return false;
  ++*i;  // closing quote
  return true;
}

bool SkipJsonValue(const std::string& s, size_t* i) {
  SkipWs(s, i);
  if (*i >= s.size()) return false;
  const char c = s[*i];
  if (c == '"') return SkipJsonString(s, i);
  if (c == '{' || c == '[') {
    const char close = c == '{' ? '}' : ']';
    ++*i;
    SkipWs(s, i);
    if (*i < s.size() && s[*i] == close) {
      ++*i;
      return true;
    }
    for (;;) {
      if (c == '{') {
        SkipWs(s, i);
        if (!SkipJsonString(s, i)) return false;
        SkipWs(s, i);
        if (*i >= s.size() || s[*i] != ':') return false;
        ++*i;
      }
      if (!SkipJsonValue(s, i)) return false;
      SkipWs(s, i);
      if (*i >= s.size()) return false;
      if (s[*i] == ',') {
        ++*i;
        continue;
      }
      if (s[*i] == close) {
        ++*i;
        return true;
      }
      return false;
    }
  }
  // number / true / false / null
  const size_t start = *i;
  while (*i < s.size() && (std::isalnum(static_cast<unsigned char>(s[*i])) ||
                           s[*i] == '-' || s[*i] == '+' || s[*i] == '.')) {
    ++*i;
  }
  return *i > start;
}

bool IsValidJson(const std::string& s) {
  size_t i = 0;
  if (!SkipJsonValue(s, &i)) return false;
  SkipWs(s, &i);
  return i == s.size();
}

[[maybe_unused]] int CountOccurrences(const std::string& text,
                                      const std::string& needle) {
  int count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// ---- SaturatingAdd / HistogramData -------------------------------------------

TEST(SaturatingAddTest, SaturatesAtBothExtremes) {
  EXPECT_EQ(obs::SaturatingAdd(1, 2), 3);
  EXPECT_EQ(obs::SaturatingAdd(kInt64Max, 1), kInt64Max);
  EXPECT_EQ(obs::SaturatingAdd(kInt64Max, kInt64Max), kInt64Max);
  EXPECT_EQ(obs::SaturatingAdd(std::numeric_limits<int64_t>::min(), -1),
            std::numeric_limits<int64_t>::min());
}

TEST(HistogramDataTest, BucketEdgesAreInclusiveUpperBounds) {
  obs::HistogramData h{std::vector<int64_t>{10, 20}};
  ASSERT_EQ(h.counts.size(), 3u);  // two finite buckets + the +Inf bucket
  EXPECT_EQ(h.BucketOf(-5), 0);
  EXPECT_EQ(h.BucketOf(10), 0);   // exactly at the first bound
  EXPECT_EQ(h.BucketOf(11), 1);
  EXPECT_EQ(h.BucketOf(20), 1);   // exactly at the last finite bound
  EXPECT_EQ(h.BucketOf(21), 2);   // past every finite bound: +Inf bucket
  h.Record(10);
  h.Record(11);
  h.Record(20);
  h.Record(21);
  EXPECT_EQ(h.counts[0], 1);
  EXPECT_EQ(h.counts[1], 2);
  EXPECT_EQ(h.counts[2], 1);
  EXPECT_EQ(h.total, 4);
  EXPECT_EQ(h.sum, 62);
  EXPECT_EQ(h.PercentileUpperBound(0.5), 20);
  // The top quantile lands in the +Inf bucket: reported as INT64_MAX, never
  // a made-up finite bound.
  EXPECT_EQ(h.PercentileUpperBound(1.0), kInt64Max);
}

TEST(HistogramDataTest, DefaultLayoutMatchesPowerOfTwoLatencyBuckets) {
  obs::HistogramData h;
  h.Record(0);
  h.Record(3);     // bucket upper bound 3
  h.Record(1000);  // bucket [512, 1023]
  EXPECT_EQ(h.total, 3);
  EXPECT_EQ(h.PercentileUpperBound(0.5), 3);
  EXPECT_EQ(h.PercentileUpperBound(0.99), 1023);
  // Negative durations (clock skew) land in bucket 0, not out of range.
  h.Record(-7);
  EXPECT_EQ(h.counts[0], 2);
}

TEST(HistogramDataTest, CountsSaturateInsteadOfWrapping) {
  obs::HistogramData h{std::vector<int64_t>{10}};
  h.counts[0] = kInt64Max;
  h.total = kInt64Max;
  h.sum = kInt64Max - 1;
  h.Record(5);
  EXPECT_EQ(h.counts[0], kInt64Max);
  EXPECT_EQ(h.total, kInt64Max);
  EXPECT_EQ(h.sum, kInt64Max);
}

TEST(HistogramDataTest, MergeFromIsSaturating) {
  obs::HistogramData a{std::vector<int64_t>{10}};
  obs::HistogramData b{std::vector<int64_t>{10}};
  a.counts[1] = kInt64Max - 1;
  a.total = kInt64Max - 1;
  b.counts[1] = 5;
  b.total = 5;
  b.sum = 50;
  a.MergeFrom(b);
  EXPECT_EQ(a.counts[1], kInt64Max);
  EXPECT_EQ(a.total, kInt64Max);
  EXPECT_EQ(a.sum, 50);
}

TEST(HistogramDataTest, LinearLayout) {
  obs::HistogramData h = obs::HistogramData::Linear(100, 100, 3);
  EXPECT_EQ(h.bounds, (std::vector<int64_t>{100, 200, 300}));
  h.Record(150);
  h.Record(301);
  EXPECT_EQ(h.counts[1], 1);
  EXPECT_EQ(h.counts[3], 1);
}

// ---- ServerStats merging -----------------------------------------------------

TEST(ServerStatsTest, MergeFromAddsAndSaturates) {
  ServerStats a;
  a.submitted = kInt64Max - 2;
  a.admitted = 10;
  a.tier_count[0] = 4;
  a.latency.Record(100);
  ServerStats b;
  b.submitted = 5;
  b.admitted = 7;
  b.shed = 1;
  b.tier_count[0] = 2;
  b.tier_count[3] = 9;
  b.latency.Record(200);
  b.latency.Record(300);
  a.MergeFrom(b);
  EXPECT_EQ(a.submitted, kInt64Max);  // saturates, does not wrap negative
  EXPECT_EQ(a.admitted, 17);
  EXPECT_EQ(a.shed, 1);
  EXPECT_EQ(a.tier_count[0], 6);
  EXPECT_EQ(a.tier_count[3], 9);
  EXPECT_EQ(a.latency.total, 3);
  EXPECT_EQ(a.latency.sum, 600);
}

// ---- Registry metrics --------------------------------------------------------

TEST_F(ObsTest, CountersAggregateAcrossShardsAndReset) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.GetCounter("test.counter");
  counter.Add(3);
  counter.Add();
  EXPECT_EQ(counter.Value(), 4);
  // Same name, same metric: references stay stable across lookups.
  EXPECT_EQ(&registry.GetCounter("test.counter"), &counter);
  registry.ResetForTest();
  EXPECT_EQ(counter.Value(), 0);
}

TEST_F(ObsTest, GaugesAndCallbackGauges) {
  obs::MetricsRegistry registry;
  registry.GetGauge("depth").Set(12);
  registry.GetGauge("depth").Add(-2);
  std::atomic<int64_t> level{7};
  registry.RegisterCallbackGauge("sampled", [&] { return level.load(); });
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.gauges.at("depth"), 10);
  EXPECT_EQ(snapshot.gauges.at("sampled"), 7);
  level.store(9);
  EXPECT_EQ(registry.Snapshot().gauges.at("sampled"), 9);
}

TEST_F(ObsTest, ConcurrentHistogramSnapshotsMatchValueType) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.GetHistogram(
      "lat", obs::HistogramData{std::vector<int64_t>{10, 20}});
  h.Record(10);
  h.Record(15);
  h.Record(99);
  const obs::HistogramData data = h.Snapshot();
  EXPECT_EQ(data.counts, (std::vector<int64_t>{1, 1, 1}));
  EXPECT_EQ(data.total, 3);
  EXPECT_EQ(data.sum, 124);
  EXPECT_EQ(data.PercentileUpperBound(0.5), 20);
}

TEST_F(ObsTest, MacrosRecordOnlyWhenEnabled) {
  obs::SetEnabled(false);
  KUC_OBS_COUNT("obs_test.gated", 1);
  // Disabled macros must not even create the metric.
  EXPECT_EQ(obs::DefaultRegistry().Snapshot().counters.count("obs_test.gated"),
            0u);
  obs::SetEnabled(true);
  KUC_OBS_COUNT("obs_test.gated", 2);
  KUC_OBS_GAUGE_SET("obs_test.gauge", 5);
  KUC_OBS_HISTOGRAM("obs_test.hist", 42);
  obs::Count("obs_test.dynamic", 3);
  const obs::MetricsSnapshot snapshot = obs::DefaultRegistry().Snapshot();
  EXPECT_EQ(snapshot.counters.at("obs_test.gated"), 2);
  EXPECT_EQ(snapshot.gauges.at("obs_test.gauge"), 5);
  EXPECT_EQ(snapshot.histograms.at("obs_test.hist").total, 1);
  EXPECT_EQ(snapshot.counters.at("obs_test.dynamic"), 3);
  obs::SetEnabled(false);
  obs::Count("obs_test.dynamic", 3);  // gated: no further effect
  EXPECT_EQ(obs::DefaultRegistry().Snapshot().counters.at("obs_test.dynamic"),
            3);
}

TEST_F(ObsTest, ContainerLoadSetsStoreGaugesAndRecordsSpans) {
  WebScaleConfig config;
  config.num_users = 8;
  config.num_items = 5;
  config.num_entities = 4;
  config.num_kg_relations = 2;
  config.interactions_per_user = 3;
  config.num_kg_triplets = 12;

  InMemoryFileSystem fs;
  Ckg written;
  ASSERT_TRUE(
      GenerateWebScaleContainer(fs, "/obs/g.kucstor", config, &written).ok());
  Ckg loaded;
  StoreLoadStats stats;
  ASSERT_TRUE(LoadCkgContainer(fs, "/obs/g.kucstor", StoreLoadOptions(),
                             &loaded, &stats)
                  .ok());

  const obs::MetricsSnapshot snapshot = obs::DefaultRegistry().Snapshot();
  ASSERT_EQ(snapshot.gauges.count("store.bytes_resident"), 1u);
  EXPECT_EQ(snapshot.gauges.at("store.bytes_resident"),
            loaded.bytes_resident());
  EXPECT_EQ(snapshot.gauges.at("store.edges"), loaded.num_edges());
  // The in-memory filesystem emulates the mapping with a heap copy, so the
  // mmap-hit gauge reports a miss.
  EXPECT_EQ(snapshot.gauges.at("store.mmap_hit"), 0);

  // Save and load are both wrapped in trace spans.
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Default().Collect();
  bool saw_save = false, saw_load = false;
  for (const obs::TraceEvent& event : events) {
    if (std::strcmp(event.name, "store.container_save") == 0) saw_save = true;
    if (std::strcmp(event.name, "store.container_load") == 0) saw_load = true;
  }
  EXPECT_TRUE(saw_save);
  EXPECT_TRUE(saw_load);
}

TEST_F(ObsTest, StoreMmapHitGaugeReportsKernelMappings) {
  WebScaleConfig config;
  config.num_users = 4;
  config.num_items = 3;
  config.num_entities = 2;
  config.num_kg_relations = 1;
  config.interactions_per_user = 2;
  config.num_kg_triplets = 5;

  FileSystem& real = DefaultFileSystem();
  const std::string path = ::testing::TempDir() + "/obs_store.kucstor";
  ASSERT_TRUE(GenerateWebScaleContainer(real, path, config).ok());
  Ckg loaded;
  ASSERT_TRUE(
      LoadCkgContainer(real, path, StoreLoadOptions(), &loaded, nullptr).ok());
  EXPECT_EQ(obs::DefaultRegistry().Snapshot().gauges.at("store.mmap_hit"), 1);

  // A full (non-mmap) load resets the gauge: it reports the *last* load.
  StoreLoadOptions full_read;
  full_read.use_mmap = false;
  ASSERT_TRUE(LoadCkgContainer(real, path, full_read, &loaded, nullptr).ok());
  EXPECT_EQ(obs::DefaultRegistry().Snapshot().gauges.at("store.mmap_hit"), 0);
  ASSERT_TRUE(real.Remove(path).ok());
}

TEST_F(ObsTest, DefaultRegistryExposesThreadPoolGauges) {
  const obs::MetricsSnapshot snapshot = obs::DefaultRegistry().Snapshot();
  ASSERT_EQ(snapshot.gauges.count("threadpool.queue_depth"), 1u);
  ASSERT_EQ(snapshot.gauges.count("threadpool.tasks_submitted"), 1u);
  EXPECT_GE(snapshot.gauges.at("threadpool.queue_depth"), 0);
  const int64_t before = snapshot.gauges.at("threadpool.tasks_submitted");
  ParallelFor(GlobalPool(), 64, [](int64_t) {});
  EXPECT_GE(obs::DefaultRegistry().Snapshot().gauges.at(
                "threadpool.tasks_submitted"),
            before);
}

// ---- Concurrency stress (TSan target) ----------------------------------------

TEST_F(ObsTest, ConcurrentWritersAndSnapshottersAreConsistent) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 20'000;
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.GetCounter("stress.counter");
  obs::Histogram& histogram = registry.GetHistogram("stress.hist");
  std::atomic<bool> stop{false};
  // A reader thread snapshots continuously while writers hammer the shards;
  // every intermediate snapshot must be internally consistent (total ==
  // bucket sum) even though it races with the adds.
  std::thread reader([&] {
    while (!stop.load()) {
      const obs::MetricsSnapshot snapshot = registry.Snapshot();
      const auto it = snapshot.histograms.find("stress.hist");
      if (it != snapshot.histograms.end()) {
        int64_t bucket_sum = 0;
        for (const int64_t c : it->second.counts) bucket_sum += c;
        EXPECT_EQ(bucket_sum, it->second.total);
      }
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, &counter, &histogram, t] {
      for (int i = 0; i < kIterations; ++i) {
        counter.Add(1);
        histogram.Record(t * 100 + i % 7);
        // Mixed-name traffic exercises the registry lock too.
        registry.GetCounter(i % 2 == 0 ? "stress.even" : "stress.odd").Add(1);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(counter.Value(), int64_t{kThreads} * kIterations);
  EXPECT_EQ(histogram.Snapshot().total, int64_t{kThreads} * kIterations);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("stress.even") +
                snapshot.counters.at("stress.odd"),
            int64_t{kThreads} * kIterations);
}

TEST_F(ObsTest, ConcurrentSpansLandInPerThreadBuffers) {
  constexpr int kThreads = 6;
  constexpr int kSpansPerThread = 500;
  obs::TraceRecorder::Default().SetCapacityPerThread(8192);
  obs::TraceRecorder::Default().Clear();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::ScopedSpan outer("stress.outer");
        obs::ScopedSpan inner("stress.inner");
      }
      // Collect from inside a worker while other threads still record.
      (void)obs::TraceRecorder::Default().Collect();
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Default().Collect();
  EXPECT_EQ(static_cast<int>(events.size()), kThreads * kSpansPerThread * 2);
  EXPECT_EQ(obs::TraceRecorder::Default().dropped(), 0);
}

// ---- Span trees under FakeClock ----------------------------------------------

TEST_F(ObsTest, SpanTreeIsDeterministicUnderFakeClock) {
  FakeClock clock(100);
  obs::SetClockForTest(&clock);
  obs::TraceRecorder::Default().Clear();
  {
    obs::ScopedSpan outer("outer");
    clock.AdvanceMicros(5);
    {
      obs::ScopedSpan inner("inner");
      clock.AdvanceMicros(3);
    }
    clock.AdvanceMicros(2);
  }
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Default().Collect();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer (t=100) precedes inner (t=105).
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].start_micros, 100);
  EXPECT_EQ(events[0].dur_micros, 10);
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].start_micros, 105);
  EXPECT_EQ(events[1].dur_micros, 3);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[0].tid, events[1].tid);
  // The child nests inside the parent's interval: a well-formed tree.
  EXPECT_GE(events[1].start_micros, events[0].start_micros);
  EXPECT_LE(events[1].start_micros + events[1].dur_micros,
            events[0].start_micros + events[0].dur_micros);
}

TEST_F(ObsTest, RingBufferOverwritesOldestAndCountsDrops) {
  FakeClock clock;
  clock.set_auto_advance_micros(1);
  obs::SetClockForTest(&clock);
  obs::TraceRecorder::Default().SetCapacityPerThread(2);
  obs::TraceRecorder::Default().Clear();
  { obs::ScopedSpan a("first"); }
  { obs::ScopedSpan b("second"); }
  { obs::ScopedSpan c("third"); }
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Default().Collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "second");
  EXPECT_STREQ(events[1].name, "third");
  EXPECT_EQ(obs::TraceRecorder::Default().dropped(), 1);
  obs::TraceRecorder::Default().SetCapacityPerThread(8192);
  obs::TraceRecorder::Default().Clear();
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  obs::SetEnabled(false);
  obs::TraceRecorder::Default().Clear();
  { KUC_TRACE_SPAN("invisible"); }
  EXPECT_TRUE(obs::TraceRecorder::Default().Collect().empty());
}

// ---- Exporters ---------------------------------------------------------------

TEST_F(ObsTest, PrometheusTextIsExactUnderDeterministicInput) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a.b").Add(3);
  registry.GetGauge("queue").Set(-2);
  obs::Histogram& h = registry.GetHistogram(
      "lat.us", obs::HistogramData{std::vector<int64_t>{1, 2}});
  h.Record(0);
  h.Record(2);
  h.Record(5);
  const std::string text = obs::ToPrometheusText(registry.Snapshot());
  EXPECT_EQ(text,
            "# TYPE kucnet_a_b_total counter\n"
            "kucnet_a_b_total 3\n"
            "# TYPE kucnet_queue gauge\n"
            "kucnet_queue -2\n"
            "# TYPE kucnet_lat_us histogram\n"
            "kucnet_lat_us_bucket{le=\"1\"} 1\n"
            "kucnet_lat_us_bucket{le=\"2\"} 2\n"
            "kucnet_lat_us_bucket{le=\"+Inf\"} 3\n"
            "kucnet_lat_us_sum 7\n"
            "kucnet_lat_us_count 3\n");
}

TEST_F(ObsTest, ChromeTraceJsonIsValidAndCarriesSpanFields) {
  obs::TraceEvent event;
  event.name = "stage \"x\"\n";  // exercises string escaping
  event.start_micros = 50;
  event.dur_micros = 4;
  const std::string json = obs::ToChromeTraceJson({event});
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":50"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4"), std::string::npos);
  EXPECT_NE(json.find("stage \\\"x\\\"\\n"), std::string::npos);
}

// ---- End-to-end: one served request ------------------------------------------

Dataset ObsTinyDataset() {
  SyntheticConfig cfg;
  cfg.seed = 42;
  cfg.num_users = 30;
  cfg.num_items = 50;
  cfg.num_topics = 4;
  cfg.interactions_per_user = 8;
  cfg.entities_per_topic = 5;
  cfg.num_shared_entities = 6;
  cfg.kg_noise = 0.05;
  cfg.entity_entity_edges_per_topic = 5;
  Rng rng(cfg.seed);
  const RawData raw = GenerateSynthetic(cfg).raw;
  return TraditionalSplit(raw, 0.25, rng);
}

KucnetOptions ObsSmallModelOptions() {
  KucnetOptions opts;
  opts.hidden_dim = 8;
  opts.attention_dim = 3;
  opts.depth = 3;
  opts.sample_k = 8;
  return opts;
}

struct ObsServeFixture {
  ObsServeFixture() : dataset(ObsTinyDataset()), ckg(dataset.BuildCkg()) {
    ppr = PprTable::Compute(ckg);
    model = std::make_unique<Kucnet>(&dataset, &ckg, &ppr,
                                     ObsSmallModelOptions());
    RecServerOptions opts;
    opts.num_workers = 0;  // ServeSync: strictly deterministic
    server =
        std::make_unique<RecServer>(model.get(), &dataset, &ckg, &ppr, opts);
  }
  Dataset dataset;
  Ckg ckg;
  PprTable ppr;
  std::unique_ptr<Kucnet> model;
  std::unique_ptr<RecServer> server;
};

/// The recorded spans as sorted "depth name" strings: the span tree of one
/// request, independent of which threads ran its stages.
std::vector<std::string> SpanTree() {
  std::vector<std::string> tree;
  for (const obs::TraceEvent& event : obs::TraceRecorder::Default().Collect()) {
    tree.push_back(std::to_string(event.depth) + " " + event.name);
  }
  std::sort(tree.begin(), tree.end());
  return tree;
}

// ServeSync and a pipelined Submit run the same stages, so one full-tier
// request leaves the same span tree either way: one span per stage
// (extract, batch forward, respond) with the model's work nested inside.
TEST_F(ObsTest, ServeRequestTraceHasOneSpanPerPipelineStage) {
  ObsServeFixture f;
  // Only the request under test should be in the trace — not the fixture's
  // PPR preprocessing.
  obs::TraceRecorder::Default().Clear();
  obs::DefaultRegistry().ResetForTest();
  const RecResponse response = f.server->ServeSync({0});
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  ASSERT_EQ(response.tier, ServeTier::kFull);

  const std::string json =
      obs::ToChromeTraceJson(obs::TraceRecorder::Default().Collect());
  EXPECT_TRUE(IsValidJson(json));
  std::vector<std::string> want = {
      "0 serve.extract",      "1 kucnet.extract",      "2 compgraph.build",
      "0 serve.batch_forward", "1 kucnet.forward_many", "2 kucnet.forward",
      "0 serve.respond"};
  // One message-passing span per layer. The fallback tiers never ran, so
  // their spans must not appear.
  for (int64_t l = 0; l < ObsSmallModelOptions().depth; ++l) {
    want.push_back("3 kucnet.layer");
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(SpanTree(), want);

  const obs::MetricsSnapshot snapshot = obs::DefaultRegistry().Snapshot();
  EXPECT_EQ(snapshot.counters.at("serve.submitted"), 1);
  EXPECT_EQ(snapshot.counters.at("serve.admitted"), 1);
  EXPECT_EQ(snapshot.counters.at("serve.completed"), 1);
  EXPECT_EQ(snapshot.counters.at("serve.tier.full"), 1);
  EXPECT_EQ(snapshot.counters.at("serve.batch.forwards"), 1);
  EXPECT_EQ(snapshot.histograms.at("serve.latency_micros").total, 1);

  RecServerOptions opts;
  opts.num_workers = 1;
  RecServer pipelined(f.model.get(), &f.dataset, &f.ckg, &f.ppr, opts);
  obs::TraceRecorder::Default().Clear();
  const RecResponse submitted = pipelined.Submit({0}).get();
  ASSERT_EQ(submitted.tier, ServeTier::kFull);
  pipelined.Shutdown();  // joins the stage threads: every span is closed
  EXPECT_EQ(SpanTree(), want);
}

TEST_F(ObsTest, ScoreCacheCountersReconcileWithMetrics) {
  obs::DefaultRegistry().ResetForTest();
  FakeClock clock;
  ScoreCacheOptions opts;
  opts.capacity = 2;
  opts.max_age_micros = 1000;
  ScoreCache cache(opts, &clock);
  std::vector<double> out;
  cache.Put(1, {1.0});
  cache.Put(2, {2.0});
  EXPECT_TRUE(cache.Get(1, &out));   // hit
  cache.Put(3, {3.0});               // evicts 2
  EXPECT_FALSE(cache.Get(2, &out));  // miss (evicted)
  clock.AdvanceMicros(2000);
  EXPECT_FALSE(cache.Get(1, &out));  // miss (stale, dropped)
  EXPECT_FALSE(cache.Get(9, &out));  // miss (never present)
  const obs::MetricsSnapshot snapshot = obs::DefaultRegistry().Snapshot();
  // The cache's own counters and the registry metrics are two views of the
  // same events: they must reconcile exactly.
  EXPECT_EQ(snapshot.counters.at("serve.cache.hits"), cache.hits());
  EXPECT_EQ(snapshot.counters.at("serve.cache.misses"), cache.misses());
  EXPECT_EQ(snapshot.counters.at("serve.cache.evictions"), 1);
  EXPECT_EQ(snapshot.counters.at("serve.cache.stale_evictions"), 1);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 3);
}

TEST_F(ObsTest, ModelOutputsBitIdenticalWithObsOnAndOff) {
  ObsServeFixture f;
  for (int64_t user = 0; user < 4; ++user) {
    SCOPED_TRACE("user " + std::to_string(user));
    obs::SetEnabled(false);
    KucnetForward off_forward;
    ASSERT_TRUE(f.model->TryForward(user, ExecContext(), &off_forward).ok());
    obs::SetEnabled(true);
    KucnetForward on_forward;
    ASSERT_TRUE(f.model->TryForward(user, ExecContext(), &on_forward).ok());
    const std::vector<double>& off = off_forward.item_scores;
    const std::vector<double>& on = on_forward.item_scores;
    ASSERT_EQ(off.size(), on.size());
    ASSERT_FALSE(off.empty());
    EXPECT_EQ(std::memcmp(off.data(), on.data(), off.size() * sizeof(double)),
              0);
  }
}

}  // namespace
}  // namespace kucnet
