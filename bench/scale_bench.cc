// Web-scale data plane benchmark (BENCH_scale.json).
//
// Streams the full `synth-web-scale` configuration — 10^6 users, 10^5
// items, 10^7 KG triplets — through the compact store and measures the four
// numbers DESIGN.md §5g promises:
//
//   1. container — generation + save time, container bytes, and bytes/edge
//      of the loaded CompactCkg against the analytic int64 `Ckg` layout
//      ((n+1)*8 row-pointer bytes + E*16 edge bytes). The compact layout
//      staying at or under 40% of the int64 footprint is a HARD CHECK; the
//      int64 baseline itself is never materialized (at this scale it would
//      be the problem the store exists to avoid).
//   2. load — zero-copy mmap load (lazy paging, checksums deferred) vs the
//      bounded-range full read that verifies every section.
//   3. ppr — forward-push latency percentiles over sampled users on the
//      mapped graph.
//   4. serve — end-to-end ServeSync latency percentiles through a full
//      Kucnet + RecServer stack over the mapped million-user graph. Every
//      request being answered is a HARD CHECK.
//
// Peak RSS (VmHWM) is reported alongside so regressions in transient
// generation memory show up in review diffs.
//
//   scale_bench [OUTPUT.json] [reduced]
//
// The optional `reduced` argument runs the 10^4-user configuration instead
// (CI runs it on every change for the two hard checks). The container is
// written next to the output, at OUTPUT.json.kucstor, and removed when the
// run ends, on a failed check too. The output goes through
// bench::WriteBenchJson: one row per phase.

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "core/kucnet.h"
#include "data/dataset.h"
#include "ppr/ppr.h"
#include "serve/rec_server.h"
#include "store/compact_ckg.h"
#include "store/container.h"
#include "store/web_scale.h"
#include "util/clock.h"
#include "util/fs.h"
#include "util/logging.h"

namespace kucnet {
namespace {

constexpr int64_t kPprSampleUsers = 64;
constexpr int64_t kServeRequests = 24;

void CheckOk(const Status& st) { KUC_CHECK(st.ok()) << st.message(); }

/// The container's path, for RemoveContainerAndAbort.
char g_container_path[4096];

/// SIGABRT handler: a failed check aborts, and the container (234 MB at full
/// scale) goes with the process rather than outliving it.
void RemoveContainerAndAbort(int signal_number) {
  unlink(g_container_path);
  std::signal(signal_number, SIG_DFL);
  std::raise(signal_number);
}

/// Peak resident set size in kilobytes, from /proc/self/status (0 when the
/// platform does not expose it).
int64_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// A deterministic spread of sampled user ids over [0, num_users).
int64_t SampledUser(int64_t k, int64_t num_users) {
  return (k * 99991 + 7) % num_users;
}

struct ContainerResult {
  double generate_seconds = 0.0;
  int64_t nodes = 0;
  int64_t edges = 0;
  int64_t container_bytes = 0;
  double bytes_per_edge = 0.0;
  int64_t compact_bytes = 0;
  int64_t int64_bytes = 0;
  double pct_of_int64 = 0.0;
  double load_mmap_ms = 0.0;
  double load_full_ms = 0.0;
  bool mmap_backed = false;
};

struct LatencyResult {
  int64_t samples = 0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  int64_t extra = 0;  ///< ppr: mean entries; serve: full-tier responses
};

std::vector<bench::JsonObject> PhaseRows(const WebScaleConfig& config,
                                         const ContainerResult& container,
                                         const LatencyResult& ppr,
                                         const LatencyResult& serve,
                                         int64_t peak_rss_kb) {
  std::vector<bench::JsonObject> rows(4);
  rows[0]
      .Str("phase", "container")
      .Int("users", config.num_users)
      .Int("items", config.num_items)
      .Int("entities", config.num_entities)
      .Int("kg_triplets", config.num_kg_triplets)
      .Int("nodes", container.nodes)
      .Int("edges", container.edges)
      .Num("generate_seconds", container.generate_seconds)
      .Int("container_bytes", container.container_bytes)
      .Num("bytes_per_edge", container.bytes_per_edge)
      .Int("compact_bytes", container.compact_bytes)
      .Int("int64_baseline_bytes", container.int64_bytes)
      .Num("pct_of_int64", container.pct_of_int64)
      .Num("load_mmap_ms", container.load_mmap_ms)
      .Num("load_full_ms", container.load_full_ms)
      .Bool("mmap_backed", container.mmap_backed);
  rows[1]
      .Str("phase", "ppr")
      .Int("users_sampled", ppr.samples)
      .Int("push_p50_us", ppr.p50_us)
      .Int("push_p99_us", ppr.p99_us)
      .Int("mean_entries", ppr.extra);
  rows[2]
      .Str("phase", "serve")
      .Int("requests", serve.samples)
      .Int("serve_p50_us", serve.p50_us)
      .Int("serve_p99_us", serve.p99_us)
      .Int("full_tier", serve.extra);
  rows[3].Str("phase", "rss").Int("peak_rss_kb", peak_rss_kb);
  return rows;
}

int Run(const std::string& json_path, bool reduced) {
  const WebScaleConfig config =
      reduced ? WebScaleReducedConfig() : WebScaleFullConfig();
  FileSystem& fs = DefaultFileSystem();
  const std::string container_path = json_path + ".kucstor";
  KUC_CHECK(container_path.size() < sizeof(g_container_path))
      << "output path too long: " << json_path;
  std::strcpy(g_container_path, container_path.c_str());
  std::signal(SIGABRT, RemoveContainerAndAbort);

  std::printf("== web-scale data plane (%s: %lld users, %lld triplets) ==\n",
              config.name.c_str(), static_cast<long long>(config.num_users),
              static_cast<long long>(config.num_kg_triplets));

  // Phase 1: stream-generate and save the container.
  ContainerResult container;
  {
    Stopwatch watch;
    CheckOk(GenerateWebScaleContainer(fs, container_path, config));
    container.generate_seconds =
        static_cast<double>(watch.ElapsedMicros()) / 1e6;
  }
  uint64_t file_bytes = 0;
  CheckOk(fs.FileSize(container_path, &file_bytes));
  container.container_bytes = static_cast<int64_t>(file_bytes);
  std::printf("generated + saved in %.1fs (%.1f MB container)\n",
              container.generate_seconds,
              static_cast<double>(file_bytes) / (1024.0 * 1024.0));

  // Phase 2a: full read — bounded range reads, every section verified.
  {
    CompactCkg full;
    Stopwatch watch;
    StoreLoadOptions options;
    options.use_mmap = false;
    CheckOk(LoadCompactCkg(fs, container_path, options, &full, nullptr));
    container.load_full_ms = static_cast<double>(watch.ElapsedMicros()) / 1e3;
  }

  // Phase 2b: zero-copy mmap load, checksums deferred to lazy paging — the
  // serving-restart fast path. This graph backs the rest of the benchmark.
  CompactCkg graph;
  {
    Stopwatch watch;
    StoreLoadOptions options;
    options.use_mmap = true;
    options.verify_checksums = false;
    StoreLoadStats stats;
    CheckOk(LoadCompactCkg(fs, container_path, options, &graph, &stats));
    container.load_mmap_ms = static_cast<double>(watch.ElapsedMicros()) / 1e3;
    container.mmap_backed = stats.mmap_backed;
  }
  CheckOk(graph.ValidateTopology());
  container.nodes = graph.num_nodes();
  container.edges = graph.num_edges();
  container.compact_bytes = graph.bytes_resident();
  container.int64_bytes =
      (graph.num_nodes() + 1) * 8 + graph.num_edges() * 16;
  container.bytes_per_edge = static_cast<double>(container.compact_bytes) /
                             static_cast<double>(graph.num_edges());
  container.pct_of_int64 = 100.0 *
                           static_cast<double>(container.compact_bytes) /
                           static_cast<double>(container.int64_bytes);
  std::printf("load: mmap %.2fms (backed=%d) vs full read %.1fms\n",
              container.load_mmap_ms, container.mmap_backed ? 1 : 0,
              container.load_full_ms);
  std::printf("resident: %.2f bytes/edge, %.1f%% of the int64 layout\n",
              container.bytes_per_edge, container.pct_of_int64);
  // HARD CHECK: the whole point of the compact store.
  KUC_CHECK(container.pct_of_int64 <= 40.0)
      << "compact layout regressed to " << container.pct_of_int64
      << "% of the int64 baseline (budget: 40%)";

  // Phase 3: PPR forward push over sampled users on the mapped graph. The
  // per-user vectors feed the serving stack below.
  LatencyResult ppr_lat;
  const int64_t ppr_users = std::min(kPprSampleUsers, config.num_users);
  std::vector<std::unordered_map<int64_t, real_t>> vectors(config.num_users);
  {
    std::vector<int64_t> micros;
    int64_t total_entries = 0;
    for (int64_t k = 0; k < ppr_users; ++k) {
      const int64_t user = SampledUser(k, config.num_users);
      Stopwatch watch;
      vectors[user] = PprForwardPush(graph, graph.UserNode(user));
      micros.push_back(watch.ElapsedMicros());
      total_entries += static_cast<int64_t>(vectors[user].size());
    }
    ppr_lat.samples = ppr_users;
    ppr_lat.p50_us = bench::Percentile(micros, 0.5);
    ppr_lat.p99_us = bench::Percentile(micros, 0.99);
    ppr_lat.extra = total_entries / std::max<int64_t>(ppr_users, 1);
  }
  std::printf("ppr push: p50 %lldus p99 %lldus (%lld users, ~%lld entries)\n",
              static_cast<long long>(ppr_lat.p50_us),
              static_cast<long long>(ppr_lat.p99_us),
              static_cast<long long>(ppr_lat.samples),
              static_cast<long long>(ppr_lat.extra));

  // Phase 4: end-to-end serving over the mapped graph. The dataset carries
  // the materialized interactions (train-item exclusion needs them); the KG
  // stays inside the graph — re-materializing 10^7 triplets here would
  // defeat the streaming store.
  LatencyResult serve_lat;
  {
    Dataset dataset;
    dataset.name = config.name;
    dataset.num_users = config.num_users;
    dataset.num_items = config.num_items;
    dataset.num_kg_nodes = config.num_kg_nodes();
    dataset.num_kg_relations = config.num_kg_relations;
    dataset.train.reserve(config.num_users * config.interactions_per_user);
    ForEachWebScaleInput(
        config,
        [&dataset](int64_t user, int64_t item) {
          dataset.train.push_back({user, item});
        },
        [](int64_t, int64_t, int64_t) {});

    const PprTable ppr = PprTable::FromVectors(std::move(vectors));
    KucnetOptions model_options;
    model_options.hidden_dim = 16;
    model_options.attention_dim = 8;
    model_options.depth = 2;
    model_options.sample_k = 32;
    Kucnet model(&dataset, &graph, &ppr, model_options);
    RecServerOptions server_options;
    server_options.num_workers = 0;  // sequential ServeSync timing
    server_options.default_deadline_micros = 60'000'000;
    RecServer server(&model, &dataset, &graph, &ppr, server_options);

    const int64_t requests = std::min(kServeRequests, ppr_users);
    std::vector<int64_t> micros;
    int64_t answered = 0;
    int64_t full_tier = 0;
    for (int64_t k = 0; k < requests; ++k) {
      const int64_t user = SampledUser(k, config.num_users);
      Stopwatch watch;
      const RecResponse response = server.ServeSync({user, 20, 60'000'000});
      micros.push_back(watch.ElapsedMicros());
      if (response.status == ResponseStatus::kOk && !response.items.empty()) {
        ++answered;
      }
      if (response.tier == ServeTier::kFull) ++full_tier;
    }
    serve_lat.samples = requests;
    serve_lat.p50_us = bench::Percentile(micros, 0.5);
    serve_lat.p99_us = bench::Percentile(micros, 0.99);
    serve_lat.extra = full_tier;
    // HARD CHECK: a million-user graph is no excuse for an empty response.
    KUC_CHECK_EQ(answered, requests)
        << "only " << answered << " of " << requests
        << " serve requests produced recommendations";
  }
  std::printf("serve: p50 %lldus p99 %lldus (%lld requests, %lld full tier)\n",
              static_cast<long long>(serve_lat.p50_us),
              static_cast<long long>(serve_lat.p99_us),
              static_cast<long long>(serve_lat.samples),
              static_cast<long long>(serve_lat.extra));

  const int64_t peak_rss_kb = PeakRssKb();
  std::printf("peak rss: %.1f MB\n",
              static_cast<double>(peak_rss_kb) / 1024.0);

  (void)fs.Remove(container_path);
  bench::WriteBenchJson(json_path, PhaseRows(config, container, ppr_lat,
                                             serve_lat, peak_rss_kb));
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace kucnet

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_scale.json";
  const bool reduced = argc > 2 && std::string(argv[2]) == "reduced";
  return kucnet::Run(json_path, reduced);
}
