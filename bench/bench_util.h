#ifndef KUCNET_BENCH_BENCH_UTIL_H_
#define KUCNET_BENCH_BENCH_UTIL_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "ppr/ppr.h"
#include "train/trainer.h"

/// \file
/// Shared machinery for the table/figure reproduction binaries. Each bench
/// binary regenerates one table or figure of the paper, printing measured
/// numbers next to the values the paper reports (where applicable). Absolute
/// values differ — the substrate is a scaled-down synthetic CKG on CPU — but
/// the comparisons the paper draws should hold; see EXPERIMENTS.md.

namespace kucnet::bench {

/// A dataset plus everything models need (CKG + PPR preprocessing).
struct Workload {
  Dataset dataset;
  Ckg ckg;
  PprTable ppr;
  double ppr_seconds = 0.0;
};

/// Builds a named synthetic workload under the given split.
Workload MakeWorkload(const std::string& config_name, SplitKind kind,
                      uint64_t split_seed = 1);

/// Model-training outcome for one table cell.
struct RunResult {
  EvalResult eval;
  double train_seconds = 0.0;
  int64_t param_count = 0;
};

/// Options controlling a model run in the harness.
struct RunOptions {
  int epochs = -1;  ///< -1 = DefaultEpochs(name)
  int64_t dim = 32;
  uint64_t seed = 17;
  KucnetOptions kucnet;  ///< K, L, variant knobs for the KUCNet family
};

/// Creates the model, trains it, evaluates with the all-ranking protocol.
RunResult RunModel(const std::string& name, const Workload& workload,
                   const RunOptions& options = RunOptions());

/// Paper-reported (recall, ndcg) for one model on one dataset.
struct PaperValue {
  double recall = -1.0;
  double ndcg = -1.0;
};

/// Paper numbers keyed by model name, for one dataset column of a table.
using PaperColumn = std::map<std::string, PaperValue>;

/// Table III (traditional setting) paper values per dataset.
PaperColumn PaperTable3(const std::string& config_name);

/// Table IV (new items) paper values per dataset.
PaperColumn PaperTable4(const std::string& config_name);

/// Table V (DisGeNet) paper values; setting is "new item" or "new user".
PaperColumn PaperTable5(const std::string& setting);

// ---- Formatting -------------------------------------------------------------

/// Prints "== title ==" with surrounding blank lines.
void PrintHeader(const std::string& title);

/// Prints one table row: model, measured recall/ndcg, paper recall/ndcg.
void PrintRow(const std::string& model, const EvalResult& measured,
              const PaperValue& paper);

/// Prints the column legend matching PrintRow.
void PrintRowHeader();

/// Fixed-width float helper.
std::string Fmt(double value, int precision = 4);

/// True unless the KUCNET_BENCH_MODELS environment variable is set to a
/// comma-separated list that does not contain `name` (handy for quickly
/// re-running a single row of a table).
bool ModelEnabled(const std::string& name);

// ---- Machine-readable output (BENCH_*.json) ---------------------------------

/// One JSON object under construction; members keep insertion order.
class JsonObject {
 public:
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Int(const std::string& key, int64_t value);
  /// Six significant digits; a non-finite value is written as null.
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Obj(const std::string& key, const JsonObject& value);

  /// The object as one line of JSON text.
  std::string Text() const { return "{" + members_ + "}"; }

 private:
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string members_;
};

/// Writes `{"meta": {...}, "rows": [...]}` to `path` through
/// AtomicWriteFile, so a killed run leaves the previous file whole. The
/// meta object records git_sha (`git rev-parse HEAD` in the source tree,
/// read now; "none" outside a checkout), build_type, compiler, nproc,
/// global_pool_threads, simd and cpu. Aborts when the write fails.
void WriteBenchJson(const std::string& path,
                    const std::vector<JsonObject>& rows);

/// Quantile `q` in [0, 1] of raw samples: the sample at sorted index
/// round(q * (n - 1)), so it is always a measured value (0 when empty).
int64_t Percentile(std::vector<int64_t> samples, double q);

/// The "model name" line of /proc/cpuinfo (or "unknown"), cached.
const std::string& CpuModelName();

}  // namespace kucnet::bench

#endif  // KUCNET_BENCH_BENCH_UTIL_H_
