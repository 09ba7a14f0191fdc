#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// What one benchmark run reports: named metrics with units and sample
/// counts, operation counts, and the outcome of the output checks. The last
/// line of standard output is the result object (keys correct, attempted,
/// failed, metrics); everything before it is for people.

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (untraced runs) and per-layer metrics (traced
/// runs), in print order. BENCHMARK.json declares the same names and units.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

class Report {
 public:
  /// Records metric `name` (declared in either list) measured over
  /// `samples` samples; a value over no samples is dropped. The first value
  /// recorded for a name wins, so a workload's own measurement is never
  /// replaced by a side run's.
  void Put(const std::string& name, double value, int64_t samples);
  bool Has(const std::string& name) const;
  /// The recorded value of `name` (0 when not recorded).
  double Value(const std::string& name) const;

  /// Marks the run incorrect and prints why.
  void Fail(const std::string& reason);

  /// Adds operations attempted and failed (requests, updates, epochs).
  void AddOps(int64_t attempted, int64_t failed);

  /// Prints every metric of `defs` with its unit and sample count, then the
  /// result object as the last line. A metric the run did not measure fails
  /// the run. Returns the process exit code.
  int Finish(const std::vector<MetricDef>& defs);

 private:
  struct Entry {
    double value = 0.0;
    int64_t samples = 0;
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry> values_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
