#include "report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"full_share", "ratio"},
      {"answered_share", "ratio"},
      {"update_p50_ms", "ms"},
      {"update_p90_ms", "ms"},
      {"epoch_s", "s"},
      {"recall_at_20", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"serve.submit_us.p50", "us"},
      {"serve.admission_wait_ms.p50", "ms"},
      {"serve.admission_wait_ms.p90", "ms"},
      {"serve.full_stage_ms.p50", "ms"},
      {"serve.batch_wait_ms.p50", "ms"},
      {"serve.batch_size.mean", "count"},
      {"serve.multi_batch_share", "ratio"},
      {"serve.preempted_share", "ratio"},
      {"serve.missed_share", "ratio"},
      {"serve.forward_yield", "ratio"},
      {"serve.shed_share", "ratio"},
      {"serve.cached_share", "ratio"},
      {"serve.rank_ms.p50", "ms"},
      {"serve.invalidate_us.p50", "us"},
      {"core.extract_ms.p50", "ms"},
      {"core.extract_ms.p90", "ms"},
      {"core.forward_ms.p50", "ms"},
      {"core.forward_per_user_ms.b4", "ms"},
      {"core.forward_per_user_ms.b8", "ms"},
      {"core.graph_edges.p50", "count"},
      {"core.forward_ns_per_edge", "ns"},
      {"graph.build_ms.p50", "ms"},
      {"ppr.table_s", "s"},
      {"ppr.push_ms.p50", "ms"},
      {"ppr.vector_entries.mean", "count"},
      {"ppr.repair_ms.p50", "ms"},
      {"ppr.repair_ms.p90", "ms"},
      {"ppr.repair_pushes.mean", "count"},
      {"ppr.users_touched.mean", "count"},
      {"stream.append_ms.p50", "ms"},
      {"stream.append_ms.p90", "ms"},
      {"stream.update_wait_ms.p90", "ms"},
      {"stream.wal_append_us.p50", "us"},
      {"stream.graph_insert_us.p50", "us"},
      {"tensor.matmul_gflops", "GFLOP/s"},
      {"tensor.gather_gbps", "GB/s"},
      {"tensor.segment_sum_gbps", "GB/s"},
      {"tensor.backward_ms.p50", "ms"},
      {"tensor.adam_step_ms.p50", "ms"},
      {"train.users_per_s", "1/s"},
      {"store.generate_s", "s"},
      {"store.bytes_per_edge", "B"},
      {"data.build_s", "s"},
      {"trace.overhead_ms", "ms"},
  };
  return defs;
}

namespace {

const MetricDef* FindDef(const std::string& name) {
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      if (name == d.name) return &d;
    }
  }
  return nullptr;
}

}  // namespace

void Report::Put(const std::string& name, double value, int64_t samples) {
  if (FindDef(name) == nullptr) {
    std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
    std::abort();
  }
  // A value over no samples is no measurement; a later run may supply one.
  if (samples <= 0) return;
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  values_.emplace(name, Entry{value, samples});
}

bool Report::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_.count(name) > 0;
}

double Report::Value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.value;
}

void Report::Fail(const std::string& reason) {
  std::printf("CHECK FAILED: %s\n", reason.c_str());
  std::fflush(stdout);
  std::lock_guard<std::mutex> lock(mu_);
  correct_ = false;
}

void Report::AddOps(int64_t attempted, int64_t failed) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += attempted;
  failed_ += failed;
}

int Report::Finish(const std::vector<MetricDef>& defs) {
  for (const MetricDef& d : defs) {
    if (!Has(d.name)) Fail(std::string("metric not measured: ") + d.name);
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::printf("%-32s %18s %-8s %s\n", "metric", "value", "unit", "samples");
  for (const MetricDef& d : defs) {
    const auto it = values_.find(d.name);
    if (it == values_.end()) continue;
    std::printf("%-32s %18.6f %-8s n=%lld\n", d.name, it->second.value, d.unit,
                static_cast<long long>(it->second.samples));
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct_ ? "true" : "false", static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values_.find(d.name);
    if (it == values_.end()) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", d.name, it->second.value, d.unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

}  // namespace perfbench
