// The repository benchmark. One invocation runs one workload in its own
// process and prints, as its last line, the result object (see report.h);
// run it through run.py, which builds it first:
//
//   python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
//
// Workloads: stream_mixed (closed-loop reads beside a fixed-rate writer) and
// train (epochs with probe steps between them); see the workload files.
//
// Untraced runs (--trace 0) report the end-to-end metrics: set-up time,
// peak RSS, read latency p50/p90, the share of requests the full tier
// answered within the 50 ms budget, the share of operations answered,
// update latency p50/p90, epoch time and recall@20. Every workload reports
// every end-to-end metric, so that each pairing of metric and workload can
// be compared between two commits. stream_mixed's own window yields all but
// epoch time and recall, so it follows its window with a short side run of
// train for those two. train's probe steps give it reads and updates.
//
// Traced runs (--trace 1) wrap every call the benchmark makes into a layer
// in a span, replay the window's users through each layer's public entry
// points after the window, report the per-layer metrics, and write the spans
// to <out-dir>/spans_<workload>_<seed>.json. train replays nothing itself:
// it makes a short side run of stream_mixed, whose replay covers every
// layer, and both make a side run of the reduced web-scale generator for the
// store layer. run.py passes the same seed's untraced latency p50 so the
// tracing overhead can be reported.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>
#include <thread>

#include "harness.h"
#include "store/web_scale.h"
#include "tensor/simd.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

std::string CpuModel() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        model.erase(0, model.find_first_not_of(" \t"));
        model.erase(model.find_last_not_of(" \t\n") + 1);
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

/// Per span name: count, and the median duration and self time.
void PrintSpanSummary(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (size_t k = 0; k < spans.size(); ++k) {
    auto& [duration, self_ms] = by_name[spans[k].name];
    duration.push_back(static_cast<double>(spans[k].end_ns - spans[k].start_ns) *
                       1e-6);
    self_ms.push_back(static_cast<double>(self[k]) * 1e-6);
  }
  std::printf("%-24s %8s %14s %14s\n", "span", "count", "p50 ms",
              "self p50 ms");
  for (const auto& [name, v] : by_name) {
    std::printf("%-24s %8zu %14.4f %14.4f\n", name.c_str(), v.first.size(),
                Median(v.first), Median(v.second));
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload stream_mixed|train --seed N "
               "--seconds S --trace 0|1 "
               "[--git-sha SHA] [--source-digest D] [--out-dir DIR] "
               "[--untraced-latency-p50-ms X]\n");
  return 2;
}

}  // namespace

void RunStoreSide(const Run& run) {
  const kucnet::WebScaleConfig config = kucnet::WebScaleReducedConfig();
  kucnet::CompactCkg graph;
  const int64_t t0 = NowNs();
  const kucnet::Status st = kucnet::TryGenerateWebScaleGraph(config, &graph);
  const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  if (!st.ok()) {
    run.report->Fail("reduced web-scale generation failed: " + st.message());
    return;
  }
  std::printf("store (side run): %s generated in %.3f s, %lld edges\n",
              config.name.c_str(), seconds,
              static_cast<long long>(graph.num_edges()));
  run.report->Put("store.generate_s", seconds, 1);
  run.report->Put("store.bytes_per_edge",
                  static_cast<double>(graph.bytes_resident()) /
                      static_cast<double>(graph.num_edges()),
                  graph.num_edges());
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string git_sha = "none";
  std::string source_digest = "none";
  double untraced_p50 = -1.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--untraced-latency-p50-ms") {
      untraced_p50 = std::strtod(value, nullptr);
    } else {
      return Usage();
    }
  }
  const std::string& w = config.workload;
  if ((argc - 1) % 2 != 0 || config.seconds <= 0.0 ||
      (w != "stream_mixed" && w != "train")) {
    return Usage();
  }

  std::printf("meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"git_sha\": \"%s\", \"source_digest\": \"%s\", "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
              "\"global_pool_threads\": %d, \"simd\": \"%s\", "
              "\"cpu\": \"%s\", \"deadline_us\": %lld, "
              "\"setup_repeats\": %d, \"user_zipf\": %g}\n",
              w.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0, git_sha.c_str(),
              source_digest.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              std::thread::hardware_concurrency(),
              kucnet::GlobalPool().num_threads(),
              kucnet::SimdLevelName(kucnet::ActiveSimdLevel()),
              CpuModel().c_str(), static_cast<long long>(kDeadlineMicros),
              kSetupRepeats, kUserZipf);
  std::fflush(stdout);

  Report report;
  Tracer tracer(config.trace);
  const Run run{config, &report, &tracer};
  if (w == "stream_mixed") RunStreamMixed(run, /*side=*/false);
  if (w == "train") RunTrain(run, /*side=*/false);
  // VmHWM is the whole process's high-water mark: read it before the side
  // runs, so that it is this workload's own.
  report.Put("peak_rss_mb", PeakRssMb(), 1);
  if (w == "stream_mixed") RunTrain(run, /*side=*/true);
  if (config.trace) {
    if (w == "train") RunStreamMixed(run, /*side=*/true);
    RunStoreSide(run);
  }
  const double latency_p50 = report.Value("latency_p50_ms");

  if (config.trace) {
    report.Put("trace.overhead_ms",
               untraced_p50 >= 0.0 ? latency_p50 - untraced_p50 : 0.0, 1);
    const std::string path = config.out_dir + "/spans_" + w + "_" +
                             std::to_string(config.seed) + ".json";
    PrintSpanSummary(tracer.spans());
    if (tracer.WriteJson(path)) {
      std::printf("wrote %zu spans to %s\n", tracer.spans().size(),
                  path.c_str());
    }
  }
  return report.Finish(config.trace ? PerLayerMetrics() : EndToEndMetrics());
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
