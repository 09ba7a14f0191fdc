#include "bench/bench_util.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "tensor/simd.h"
#include "util/clock.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace kucnet::bench {

Workload MakeWorkload(const std::string& config_name, SplitKind kind,
                      uint64_t split_seed) {
  SyntheticConfig cfg;
  const Status found = SynthConfigByName(config_name, &cfg);
  KUC_CHECK(found.ok()) << found.message();
  const SyntheticData synth = GenerateSynthetic(cfg);
  const RawData& raw = synth.raw;
  Rng rng(split_seed);
  Dataset dataset;
  switch (kind) {
    case SplitKind::kTraditional:
      dataset = TraditionalSplit(raw, 0.2, rng);
      break;
    case SplitKind::kNewItem:
      dataset = NewItemSplit(raw, 0.2, rng);
      break;
    case SplitKind::kNewUser:
      dataset = NewUserSplit(raw, 0.2, rng);
      break;
    case SplitKind::kTemporal:
      dataset = TemporalSplit(raw, synth.arrival_order, 0.8);
      break;
  }
  Workload w{std::move(dataset), Ckg(), PprTable(), 0.0};
  w.ckg = w.dataset.BuildCkg();
  Stopwatch timer;
  w.ppr = PprTable::Compute(w.ckg, PprTableOptions(), &GlobalPool());
  w.ppr_seconds = timer.Seconds();
  return w;
}

RunResult RunModel(const std::string& name, const Workload& workload,
                   const RunOptions& options) {
  ModelContext ctx;
  ctx.dataset = &workload.dataset;
  ctx.ckg = &workload.ckg;
  ctx.ppr = &workload.ppr;
  ctx.dim = options.dim;
  ctx.seed = options.seed;
  ctx.kucnet = options.kucnet;
  if (const char* k_env = std::getenv("KUCNET_BENCH_K");
      k_env != nullptr && *k_env != '\0') {
    ctx.kucnet.sample_k = std::atoll(k_env);
  }
  std::unique_ptr<RankModel> model = CreateModel(name, ctx);

  TrainOptions train_opts;
  train_opts.epochs =
      options.epochs >= 0 ? options.epochs : DefaultEpochs(name);
  if (const char* e_env = std::getenv("KUCNET_BENCH_EPOCHS");
      e_env != nullptr && *e_env != '\0') {
    train_opts.epochs = std::atoi(e_env);
  }
  train_opts.seed = options.seed;
  const TrainResult result = TrainModel(*model, workload.dataset, train_opts);

  RunResult out;
  out.eval = result.final_eval;
  out.train_seconds = result.train_seconds;
  out.param_count = model->ParamCount();
  return out;
}

namespace {

PaperColumn Table3LastFm() {
  return {{"MF", {0.0724, 0.0617}},      {"FM", {0.0778, 0.0644}},
          {"NFM", {0.0829, 0.0671}},     {"RippleNet", {0.0791, 0.0652}},
          {"KGNN-LS", {0.0880, 0.0642}}, {"CKAN", {0.0812, 0.0660}},
          {"KGIN", {0.0978, 0.0848}},    {"CKE", {0.0732, 0.0630}},
          {"R-GCN", {0.0743, 0.0631}},   {"KGAT", {0.0873, 0.0744}},
          {"KUCNet", {0.1205, 0.1078}}};
}

PaperColumn Table3AmazonBook() {
  return {{"MF", {0.1300, 0.0678}},      {"FM", {0.1345, 0.0701}},
          {"NFM", {0.1366, 0.0713}},     {"RippleNet", {0.1336, 0.0694}},
          {"KGNN-LS", {0.1362, 0.0560}}, {"CKAN", {0.1442, 0.0698}},
          {"KGIN", {0.1687, 0.0915}},    {"CKE", {0.1342, 0.0698}},
          {"R-GCN", {0.1220, 0.0646}},   {"KGAT", {0.1487, 0.0799}},
          {"KUCNet", {0.1718, 0.0967}}};
}

PaperColumn Table3IFashion() {
  return {{"MF", {0.1095, 0.0670}},      {"FM", {0.1001, 0.0602}},
          {"NFM", {0.1035, 0.0654}},     {"RippleNet", {0.0960, 0.0521}},
          {"KGNN-LS", {0.1039, 0.0557}}, {"CKAN", {0.0970, 0.0509}},
          {"KGIN", {0.1147, 0.0716}},    {"CKE", {0.1103, 0.0676}},
          {"R-GCN", {0.0860, 0.0515}},   {"KGAT", {0.1030, 0.0627}},
          {"KUCNet", {0.1031, 0.0663}}};
}

PaperColumn Table4LastFm() {
  return {{"MF", {0.0, 0.0}},
          {"FM", {0.0012, 0.0007}},
          {"NFM", {0.0125, 0.0068}},
          {"RippleNet", {0.0005, 0.0004}},
          {"KGNN-LS", {0.0, 0.0}},
          {"CKAN", {0.0005, 0.0005}},
          {"KGIN", {0.2472, 0.2292}},
          {"CKE", {0.0, 0.0}},
          {"R-GCN", {0.0616, 0.0372}},
          {"KGAT", {0.0, 0.0}},
          {"PPR", {0.2274, 0.1919}},
          {"PathSim", {0.5248, 0.5308}},
          {"REDGNN", {0.5284, 0.5425}},
          {"KUCNet", {0.5375, 0.5573}}};
}

PaperColumn Table4AmazonBook() {
  return {{"MF", {0.0, 0.0}},
          {"FM", {0.0026, 0.0010}},
          {"NFM", {0.0006, 0.0003}},
          {"RippleNet", {0.0011, 0.0005}},
          {"KGNN-LS", {0.0001, 0.0001}},
          {"CKAN", {0.0005, 0.0003}},
          {"KGIN", {0.0868, 0.0446}},
          {"CKE", {0.0, 0.0}},
          {"R-GCN", {0.0001, 0.0001}},
          {"KGAT", {0.0001, 0.0001}},
          {"PPR", {0.0301, 0.0167}},
          {"PathSim", {0.2053, 0.1491}},
          {"REDGNN", {0.2187, 0.1633}},
          {"KUCNet", {0.2237, 0.1685}}};
}

PaperColumn Table4IFashion() {
  return {{"MF", {0.0, 0.0}},
          {"FM", {0.0, 0.0}},
          {"NFM", {0.0, 0.0}},
          {"RippleNet", {0.0007, 0.0004}},
          {"KGNN-LS", {0.0001, 0.0001}},
          {"CKAN", {0.0003, 0.0002}},
          {"KGIN", {0.0010, 0.0004}},
          {"CKE", {0.0, 0.0}},
          {"R-GCN", {0.0001, 0.0001}},
          {"KGAT", {0.0, 0.0}},
          {"PPR", {0.0001, 0.0001}},
          {"PathSim", {0.0202, 0.0088}},
          {"REDGNN", {0.0072, 0.0043}},
          {"KUCNet", {0.0269, 0.0149}}};
}

}  // namespace

PaperColumn PaperTable3(const std::string& config_name) {
  if (config_name == "synth-lastfm") return Table3LastFm();
  if (config_name == "synth-amazon-book") return Table3AmazonBook();
  if (config_name == "synth-ifashion") return Table3IFashion();
  KUC_CHECK(false) << "no Table III column for " << config_name;
  return {};
}

PaperColumn PaperTable4(const std::string& config_name) {
  if (config_name == "synth-lastfm") return Table4LastFm();
  if (config_name == "synth-amazon-book") return Table4AmazonBook();
  if (config_name == "synth-ifashion") return Table4IFashion();
  KUC_CHECK(false) << "no Table IV column for " << config_name;
  return {};
}

PaperColumn PaperTable5(const std::string& setting) {
  if (setting == "new item") {
    return {{"MF", {0.0000, 0.0000}},     {"FM", {0.0007, 0.0003}},
            {"NFM", {0.0038, 0.0033}},    {"RippleNet", {0.0023, 0.0011}},
            {"KGNN-LS", {0.0017, 0.0006}},{"CKAN", {0.0189, 0.0086}},
            {"KGIN", {0.0989, 0.0568}},   {"CKE", {0.0001, 0.0000}},
            {"KGAT", {0.0032, 0.0015}},   {"R-GCN", {0.0598, 0.0294}},
            {"PPR", {0.1293, 0.0665}},    {"PathSim", {0.2023, 0.1506}},
            {"REDGNN", {0.2341, 0.1523}}, {"KUCNet", {0.2574, 0.1791}}};
  }
  if (setting == "new user") {
    return {{"MF", {0.0123, 0.0086}},     {"FM", {0.0238, 0.0165}},
            {"NFM", {0.0296, 0.0211}},    {"RippleNet", {0.0027, 0.0018}},
            {"KGNN-LS", {0.0080, 0.0048}},{"CKAN", {0.0244, 0.0138}},
            {"KGIN", {0.0031, 0.0023}},   {"CKE", {0.0072, 0.0066}},
            {"KGAT", {0.0364, 0.0264}},   {"R-GCN", {0.1498, 0.1014}},
            {"PPR", {0.0194, 0.0156}},    {"PathSim", {0.2810, 0.2144}},
            {"REDGNN", {0.2821, 0.2154}}, {"KUCNet", {0.2883, 0.2274}}};
  }
  KUC_CHECK(false) << "unknown Table V setting: " << setting;
  return {};
}

bool ModelEnabled(const std::string& name) {
  const char* filter = std::getenv("KUCNET_BENCH_MODELS");
  if (filter == nullptr || *filter == '\0') return true;
  std::istringstream ss(filter);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token == name) return true;
  }
  return false;
}

void PrintHeader(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

std::string Fmt(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

void PrintRowHeader() {
  std::printf("%-18s %9s %9s   | %12s %10s\n", "model", "recall@20",
              "ndcg@20", "paper_recall", "paper_ndcg");
}

void PrintRow(const std::string& model, const EvalResult& measured,
              const PaperValue& paper) {
  std::printf("%-18s %9s %9s   | %12s %10s\n", model.c_str(),
              Fmt(measured.recall).c_str(), Fmt(measured.ndcg).c_str(),
              paper.recall >= 0 ? Fmt(paper.recall).c_str() : "-",
              paper.ndcg >= 0 ? Fmt(paper.ndcg).c_str() : "-");
}

const std::string& CpuModelName() {
  static const std::string name = [] {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      const auto colon = line.find(':');
      if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
        const auto start = line.find_first_not_of(" \t", colon + 1);
        if (start != std::string::npos) return line.substr(start);
      }
    }
    return std::string("unknown");
  }();
  return name;
}

namespace {

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string GitSha() {
  std::FILE* pipe =
      popen("git -C '" KUCNET_BENCH_SOURCE_DIR "' rev-parse HEAD 2>/dev/null",
            "r");
  if (pipe == nullptr) return "none";
  char line[128] = {};
  const bool read = std::fgets(line, sizeof(line), pipe) != nullptr;
  const int status = pclose(pipe);
  std::string sha = read ? line : "";
  while (!sha.empty() && std::isspace(static_cast<unsigned char>(sha.back()))) {
    sha.pop_back();
  }
  return status == 0 && !sha.empty() ? sha : "none";
}

}  // namespace

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  if (!members_.empty()) members_ += ", ";
  members_ += Quoted(key) + ": " + json;
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  return Raw(key, Quoted(value));
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  return Raw(key, std::to_string(value));
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  if (!std::isfinite(value)) return Raw(key, "null");
  char text[32];
  std::snprintf(text, sizeof(text), "%.6g", value);
  return Raw(key, text);
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  return Raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  return Raw(key, value.Text());
}

void WriteBenchJson(const std::string& path,
                    const std::vector<JsonObject>& rows) {
  JsonObject meta;
  meta.Str("git_sha", GitSha())
      .Str("build_type", KUCNET_BENCH_BUILD_TYPE)
      .Str("compiler", KUCNET_BENCH_COMPILER)
      .Int("nproc", std::thread::hardware_concurrency())
      .Int("global_pool_threads", GlobalPool().num_threads())
      .Str("simd", SimdLevelName(ActiveSimdLevel()))
      .Str("cpu", CpuModelName());
  std::string text = "{\n  \"meta\": " + meta.Text() + ",\n  \"rows\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    text += (i == 0 ? "\n    " : ",\n    ") + rows[i].Text();
  }
  text += "\n  ]\n}\n";
  const Status status = AtomicWriteFile(DefaultFileSystem(), path, text);
  KUC_CHECK(status.ok()) << "cannot write " << path << ": "
                         << status.message();
}

int64_t Percentile(std::vector<int64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto idx =
      static_cast<size_t>(q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

}  // namespace kucnet::bench
