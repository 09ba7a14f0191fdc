// Command-line interface over the library: generate datasets, train any
// registered model, evaluate, and checkpoint KUCNet weights.
//
//   kucnet_cli generate --config synth-lastfm --split traditional --out DIR
//   kucnet_cli train    --data DIR --model KUCNet --epochs 8 [--ckpt FILE]
//                       [--checkpoint_dir DIR] [--checkpoint_every N]
//                       [--resume true]
//   kucnet_cli evaluate --data DIR --model KUCNet --ckpt FILE
//   kucnet_cli serve    --data DIR [--ckpt FILE] --requests N --workers W
//                       [--deadline_us N] [--top_n N] [--queue N]
//                       [--batch_max_users N] [--batch_linger_us N]
//                       [--shards N] [--retries N] [--hedge_us N]
//                       [--tenant_quota N] [--tenant_window_us N]
//                       [--warm_cache N]
//   kucnet_cli stream   --data DIR --wal DIR [--updates N] [--workers W]
//                       [--warm_cache N]
//   kucnet_cli models                       # list registered model names
//
// Splits: traditional | new-item | new-user | temporal.
//
// `stream` replays a temporal dataset's held-out suffix as *live graph
// updates* (src/stream/): each interaction is appended to the WAL-backed
// StreamingCkg, incremental PPR repair runs, and exactly the users whose
// neighborhoods changed have their cached scores invalidated while a
// RecServer keeps answering interleaved requests. The WAL in --wal DIR is
// durable: re-running the command recovers the previous run's updates
// (reported as `recovered`) and continues the stream after them.
//
// `serve` runs the deadline-aware serving layer (src/serve/) over the
// dataset: requests flow through the staged pipeline (bounded admission
// queue -> extraction workers -> batch stage coalescing up to
// --batch_max_users concurrent requests into one multi-user forward,
// lingering --batch_linger_us for stragglers), degrade through the fallback
// chain on deadline misses, and the command prints the resulting tier mix,
// batching counters, shed rate and latency percentiles. With --shards > 1
// it runs the sharded fleet instead (src/serve/fleet/): users partition
// across replicas by consistent hashing, failed shards are retried on
// siblings (--retries), slow answers can be hedged (--hedge_us > 0 enables
// hedging past that latency), per-tenant admission is bounded by
// --tenant_quota per --tenant_window_us, and --warm_cache pre-fills each
// shard's score cache with the N most active users.
//
// Long runs are interruptible: with --checkpoint_dir the trainer writes a
// crash-safe full-state snapshot (weights, Adam moments, RNG stream,
// learning curve) every --checkpoint_every epochs; re-running the same
// command with --resume true continues from the newest valid snapshot and
// produces a final model bitwise identical to an uninterrupted run.
//
// Exit status: 0 on success; 1 when a dataset, checkpoint, WAL or output
// path fails to load or save (the error goes to stderr); 2 on a usage error
// (an unknown command, flag, --config, --split or --model, a missing or
// non-numeric value, a value out of range, or --ckpt with a model outside
// the KUCNet family), reported with the usage text before any data is
// loaded. Resuming with --resume true from a snapshot of a model with other
// options still aborts inside the trainer.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "core/kucnet.h"
#include "data/serialize.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "obs/export.h"
#include "serve/fleet/shard_router.h"
#include "serve/rec_server.h"
#include "store/container.h"
#include "store/web_scale.h"
#include "stream/streaming_ckg.h"
#include "tensor/serialize.h"
#include "train/trainer.h"
#include "util/clock.h"
#include "util/fs.h"

namespace kucnet {
namespace {

const char kUsage[] =
    "usage: kucnet_cli "
    "<generate|train|evaluate|serve|stream|webscale|models> "
    "[--flags]\n"
    "  generate --config NAME --split KIND --out DIR [--seed N]\n"
    "  train    --data DIR --model NAME [--epochs N] [--k N] [--depth N]\n"
    "           [--ckpt FILE] [--checkpoint_dir DIR] [--checkpoint_every N]\n"
    "           [--resume true]\n"
    "  evaluate --data DIR --model NAME [--ckpt FILE] [--k N] [--depth N]\n"
    "  serve    --data DIR [--ckpt FILE] [--k N] [--depth N] [--requests N]\n"
    "           [--workers W] [--deadline_us N] [--top_n N] [--queue N]\n"
    "           [--batch_max_users N] [--batch_linger_us N]\n"
    "           [--shards N] [--retries N] [--hedge_us N] [--tenant_quota N]\n"
    "           [--tenant_window_us N] [--warm_cache N]\n"
    "  stream   --data DIR --wal DIR [--updates N] [--workers W]\n"
    "           [--warm_cache N]\n"
    "  webscale --out FILE [--users N] [--items N] [--entities N]\n"
    "           [--relations N] [--triplets N] [--interactions N] [--seed N]\n"
    "           [--ppr_users N]\n"
    "  models\n"
    "train/evaluate/serve also accept [--metrics_out FILE] (Prometheus text)\n"
    "and [--trace_out FILE] (chrome://tracing JSON); either flag turns the\n"
    "observability layer on for the run.\n";

/// Parses "--key value" pairs after the subcommand, validating each flag
/// against the command's known set. Returns false — after pointing at the
/// offending flag and printing usage — on an unknown flag or a flag missing
/// its value, so typos fail loudly instead of being silently ignored.
bool ParseFlags(int argc, char** argv, const std::set<std::string>& known,
                std::map<std::string, std::string>* flags) {
  for (int a = 2; a < argc; a += 2) {
    const std::string key = argv[a];
    if (key.rfind("--", 0) != 0 || known.count(key.substr(2)) == 0) {
      std::fprintf(stderr, "unknown flag for '%s': %s\n%s", argv[1],
                   key.c_str(), kUsage);
      return false;
    }
    if (a + 1 >= argc) {
      std::fprintf(stderr, "flag %s is missing a value\n%s", key.c_str(),
                   kUsage);
      return false;
    }
    (*flags)[key.substr(2)] = argv[a + 1];
  }
  return true;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

/// Strict numeric flag parse: the whole value must be a base-10 integer in
/// [min_value, max_value]. On a nonsensical value (garbage, `--shards 0`,
/// a negative `--retries`, ...) the offending flag is reported with usage
/// and false is returned, so commands can exit 2 *before* loading data or
/// building models instead of aborting mid-run on a KUC_CHECK.
bool ParseIntFlag(const std::map<std::string, std::string>& flags,
                  const std::string& key, int64_t fallback, int64_t min_value,
                  int64_t max_value, int64_t* out) {
  const std::string text = FlagOr(flags, key, std::to_string(fallback));
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "--%s: '%s' is not an integer\n%s", key.c_str(),
                 text.c_str(), kUsage);
    return false;
  }
  if (value < min_value || value > max_value) {
    std::fprintf(stderr, "--%s: %lld is out of range [%lld, %lld]\n%s",
                 key.c_str(), value, static_cast<long long>(min_value),
                 static_cast<long long>(max_value), kUsage);
    return false;
  }
  *out = value;
  return true;
}

/// Enables the observability layer when --metrics_out / --trace_out is
/// present, so the run records from its first instruction.
void MaybeEnableObs(const std::map<std::string, std::string>& flags) {
  if (flags.count("metrics_out") > 0 || flags.count("trace_out") > 0) {
    obs::SetEnabled(true);
  }
}

/// Writes the requested exports at the end of a command. Export failures are
/// diagnostics trouble, not command failure: warn and keep the exit code.
void MaybeExportObs(const std::map<std::string, std::string>& flags) {
  if (const std::string path = FlagOr(flags, "metrics_out", ""); !path.empty()) {
    const Status st = obs::WritePrometheusTextFile(obs::DefaultRegistry(), path);
    if (st.ok()) {
      std::printf("metrics written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "metrics export failed: %s\n", st.message().c_str());
    }
  }
  if (const std::string path = FlagOr(flags, "trace_out", ""); !path.empty()) {
    const Status st =
        obs::WriteChromeTraceFile(obs::TraceRecorder::Default(), path);
    if (st.ok()) {
      std::printf("trace written to %s (load in chrome://tracing)\n",
                  path.c_str());
    } else {
      std::fprintf(stderr, "trace export failed: %s\n", st.message().c_str());
    }
  }
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  int64_t seed;
  if (!ParseIntFlag(flags, "seed", 1, 0, std::numeric_limits<int64_t>::max(),
                    &seed)) {
    return 2;
  }
  const std::string split = FlagOr(flags, "split", "traditional");
  if (split != "traditional" && split != "new-item" && split != "new-user" &&
      split != "temporal") {
    std::fprintf(stderr,
                 "--split: unknown split '%s' (traditional, new-item, "
                 "new-user or temporal)\n%s",
                 split.c_str(), kUsage);
    return 2;
  }
  SyntheticConfig config;
  const Status found =
      SynthConfigByName(FlagOr(flags, "config", "synth-lastfm"), &config);
  if (!found.ok()) {
    std::fprintf(stderr, "--config: %s\n%s", found.message().c_str(), kUsage);
    return 2;
  }
  const std::string out = FlagOr(flags, "out", ".");

  const SyntheticData synth = GenerateSynthetic(config);
  const RawData& raw = synth.raw;
  Rng rng(static_cast<uint64_t>(seed));
  Dataset dataset;
  if (split == "traditional") {
    dataset = TraditionalSplit(raw, 0.2, rng);
  } else if (split == "new-item") {
    dataset = NewItemSplit(raw, 0.2, rng);
  } else if (split == "new-user") {
    dataset = NewUserSplit(raw, 0.2, rng);
  } else {
    // Streaming setting: the arrival-order prefix trains, the suffix is the
    // replay stream (`kucnet_cli stream` appends it as live updates).
    dataset = TemporalSplit(raw, synth.arrival_order, 0.8);
  }
  const Status saved = TrySaveDataset(dataset, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "cannot save dataset: %s\n", saved.message().c_str());
    return 1;
  }
  std::printf("wrote %s to %s\n", dataset.Summary().c_str(), out.c_str());
  return 0;
}

int CmdTrainOrEvaluate(const std::map<std::string, std::string>& flags,
                       bool train) {
  // Every flag is checked before the dataset is loaded. An --epochs of -1
  // (the default) trains for the model's DefaultEpochs.
  int64_t epochs, sample_k, depth, checkpoint_every;
  const int64_t kMaxInt = std::numeric_limits<int>::max();
  if (!ParseIntFlag(flags, "epochs", -1, -1, kMaxInt, &epochs) ||
      !ParseIntFlag(flags, "k", 30, 0, std::numeric_limits<int64_t>::max(),
                    &sample_k) ||
      !ParseIntFlag(flags, "depth", 3, 1, 64, &depth) ||
      !ParseIntFlag(flags, "checkpoint_every", 1, 0, kMaxInt,
                    &checkpoint_every)) {
    return 2;
  }
  const std::string model_name = FlagOr(flags, "model", "KUCNet");
  const std::vector<std::string> names = AllModelNames();
  if (std::find(names.begin(), names.end(), model_name) == names.end()) {
    std::fprintf(stderr,
                 "--model: unknown model '%s' (`kucnet_cli models` lists "
                 "them)\n%s",
                 model_name.c_str(), kUsage);
    return 2;
  }
  // A checkpoint holds KUCNet weights; every KUCNet-family name starts with
  // "KUCNet" (baselines/registry.h).
  const std::string ckpt = FlagOr(flags, "ckpt", "");
  if (!ckpt.empty() && model_name.rfind("KUCNet", 0) != 0) {
    std::fprintf(stderr,
                 "--ckpt: only KUCNet-family models have checkpoints, not "
                 "'%s'\n%s",
                 model_name.c_str(), kUsage);
    return 2;
  }

  MaybeEnableObs(flags);
  const std::string data_dir = FlagOr(flags, "data", ".");
  Dataset dataset;
  const Status loaded = TryLoadDataset(data_dir, &dataset);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load dataset: %s\n",
                 loaded.message().c_str());
    return 1;
  }
  std::printf("loaded %s\n", dataset.Summary().c_str());
  const Ckg ckg = dataset.BuildCkg();
  const PprTable ppr = PprTable::Compute(ckg, PprTableOptions(), &GlobalPool());

  ModelContext ctx;
  ctx.dataset = &dataset;
  ctx.ckg = &ckg;
  ctx.ppr = &ppr;
  ctx.kucnet.sample_k = sample_k;
  ctx.kucnet.depth = static_cast<int>(depth);
  auto model = CreateModel(model_name, ctx);

  if (train) {
    TrainOptions opts;
    opts.epochs =
        epochs >= 0 ? static_cast<int>(epochs) : DefaultEpochs(model_name);
    opts.verbose = true;
    opts.checkpoint_dir = FlagOr(flags, "checkpoint_dir", "");
    opts.checkpoint_every = static_cast<int>(checkpoint_every);
    opts.resume = FlagOr(flags, "resume", "false") == "true";
    const TrainResult result = TrainModel(*model, dataset, opts);
    if (result.resumed_from_epoch > 0) {
      std::printf("resumed from epoch %d\n", result.resumed_from_epoch);
    }
    std::printf("%s: %s (trained %.1fs)\n", model_name.c_str(),
                ToString(result.final_eval).c_str(), result.train_seconds);
    if (!ckpt.empty()) {
      const Status saved = TrySaveParameters(model->TrainableParams(), ckpt);
      if (!saved.ok()) {
        std::fprintf(stderr, "cannot write checkpoint: %s\n",
                     saved.message().c_str());
        return 1;
      }
      std::printf("checkpoint written to %s\n", ckpt.c_str());
    }
  } else {
    if (!ckpt.empty()) {
      const Status restored =
          TryLoadParameters(model->TrainableParams(), ckpt);
      if (!restored.ok()) {
        std::fprintf(stderr, "cannot load checkpoint: %s\n",
                     restored.message().c_str());
        return 1;
      }
      std::printf("loaded checkpoint %s\n", ckpt.c_str());
    }
    const EvalResult eval = EvaluateRanking(*model, dataset);
    std::printf("%s: %s\n", model_name.c_str(), ToString(eval).c_str());
  }
  MaybeExportObs(flags);
  return 0;
}

int CmdServe(const std::map<std::string, std::string>& flags) {
  // Numeric flags are validated up front — a nonsensical topology
  // (`--shards 0`, a negative retry budget or tenant quota) is a usage
  // error, reported before the dataset is even loaded.
  int64_t requests, shards, retries, hedge_us, tenant_quota, tenant_window_us;
  int64_t workers, queue, deadline_us, top_n, warm_cache, sample_k, depth;
  int64_t batch_max_users, batch_linger_us;
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  if (!ParseIntFlag(flags, "requests", 200, 0, kMax, &requests) ||
      !ParseIntFlag(flags, "shards", 1, 1, 1024, &shards) ||
      !ParseIntFlag(flags, "retries", 2, 0, kMax, &retries) ||
      !ParseIntFlag(flags, "hedge_us", 0, 0, kMax, &hedge_us) ||
      !ParseIntFlag(flags, "tenant_quota", 0, 0, kMax, &tenant_quota) ||
      !ParseIntFlag(flags, "tenant_window_us", 1'000'000, 1, kMax,
                    &tenant_window_us) ||
      !ParseIntFlag(flags, "workers", 2, 0, 1024, &workers) ||
      !ParseIntFlag(flags, "queue", 64, 1, kMax, &queue) ||
      !ParseIntFlag(flags, "deadline_us", 50'000, 1, kMax, &deadline_us) ||
      !ParseIntFlag(flags, "top_n", 20, 1, kMax, &top_n) ||
      !ParseIntFlag(flags, "warm_cache", 0, 0, kMax, &warm_cache) ||
      !ParseIntFlag(flags, "batch_max_users", 8, 1, kMax, &batch_max_users) ||
      !ParseIntFlag(flags, "batch_linger_us", 0, 0, kMax, &batch_linger_us) ||
      !ParseIntFlag(flags, "k", 30, 1, kMax, &sample_k) ||
      !ParseIntFlag(flags, "depth", 3, 1, 64, &depth)) {
    return 2;
  }

  MaybeEnableObs(flags);
  const std::string data_dir = FlagOr(flags, "data", ".");
  const std::string ckpt = FlagOr(flags, "ckpt", "");

  Dataset dataset;
  const Status loaded = TryLoadDataset(data_dir, &dataset);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load dataset: %s\n",
                 loaded.message().c_str());
    return 1;
  }
  std::printf("loaded %s\n", dataset.Summary().c_str());
  const Ckg ckg = dataset.BuildCkg();
  const PprTable ppr = PprTable::Compute(ckg, PprTableOptions(), &GlobalPool());

  KucnetOptions model_opts;
  model_opts.sample_k = sample_k;
  model_opts.depth = static_cast<int>(depth);

  RecServerOptions server_opts;
  server_opts.num_workers = static_cast<int>(workers);
  server_opts.queue_capacity = queue;
  server_opts.default_deadline_micros = deadline_us;
  server_opts.default_top_n = top_n;
  server_opts.warm_cache_users = warm_cache;
  server_opts.batch_max_users = batch_max_users;
  server_opts.batch_linger_micros = batch_linger_us;
  if (server_opts.warm_cache_users > server_opts.cache.capacity) {
    server_opts.cache.capacity = server_opts.warm_cache_users;
  }

  if (shards > 1) {
    // Fleet mode: one replica per shard behind the consistent-hash router,
    // every replica carrying the same weights.
    std::vector<std::unique_ptr<Kucnet>> owned;
    std::vector<Kucnet*> models;
    for (int s = 0; s < shards; ++s) {
      owned.push_back(
          std::make_unique<Kucnet>(&dataset, &ckg, &ppr, model_opts));
      if (!ckpt.empty()) {
        const Status restored = TryLoadParameters(owned.back()->Params(), ckpt);
        if (!restored.ok()) {
          std::fprintf(stderr, "cannot load checkpoint: %s\n",
                       restored.message().c_str());
          return 1;
        }
      }
      models.push_back(owned.back().get());
    }
    if (!ckpt.empty()) {
      std::printf("loaded checkpoint %s into %d shards\n", ckpt.c_str(),
                  static_cast<int>(shards));
    }
    ShardRouterOptions fleet_opts;
    fleet_opts.server = server_opts;
    fleet_opts.max_retries = static_cast<int>(retries);
    fleet_opts.hedging = hedge_us > 0;
    if (hedge_us > 0) fleet_opts.hedge_latency_micros = hedge_us;
    fleet_opts.tenant.quota = tenant_quota;
    fleet_opts.tenant.window_micros = tenant_window_us;
    ShardRouter router(models, &dataset, &ckg, &ppr, fleet_opts);

    int64_t served = 0;
    for (int64_t r = 0; r < requests; ++r) {
      FleetRequest request;
      request.request.user = r % dataset.num_users;
      const FleetResponse response = router.Route(request);
      served += response.response.status == ResponseStatus::kOk;
    }
    router.Shutdown();

    const FleetStats stats = router.stats();
    std::printf("fleet of %d shards served %lld/%lld  (quota shed %lld, "
                "retries %lld, hedges %lld won %lld, fallback %lld, "
                "breaker transitions %lld)\n",
                static_cast<int>(shards), static_cast<long long>(served),
                static_cast<long long>(stats.submitted),
                static_cast<long long>(stats.quota_shed),
                static_cast<long long>(stats.retries),
                static_cast<long long>(stats.hedges),
                static_cast<long long>(stats.hedges_won),
                static_cast<long long>(stats.fallback_answers),
                static_cast<long long>(stats.breaker_transitions));
    std::printf("tier mix:");
    for (int t = 0; t < kNumServeTiers; ++t) {
      std::printf("  %s %lld", ServeTierName(static_cast<ServeTier>(t)),
                  static_cast<long long>(stats.tier_count[t]));
    }
    std::printf("\npath mix:");
    for (int p = 0; p < kNumFleetPaths; ++p) {
      std::printf("  %s %lld", FleetPathName(static_cast<FleetPath>(p)),
                  static_cast<long long>(stats.path_count[p]));
    }
    std::printf(
        "\nlatency p50 <= %lldus  p99 <= %lldus\n",
        static_cast<long long>(stats.shards.latency.PercentileUpperBound(0.5)),
        static_cast<long long>(
            stats.shards.latency.PercentileUpperBound(0.99)));
    MaybeExportObs(flags);
    return 0;
  }

  Kucnet model(&dataset, &ckg, &ppr, model_opts);
  if (!ckpt.empty()) {
    const Status restored = TryLoadParameters(model.Params(), ckpt);
    if (!restored.ok()) {
      std::fprintf(stderr, "cannot load checkpoint: %s\n",
                   restored.message().c_str());
      return 1;
    }
    std::printf("loaded checkpoint %s\n", ckpt.c_str());
  }
  RecServer server(&model, &dataset, &ckg, &ppr, server_opts);

  std::vector<std::future<RecResponse>> futures;
  futures.reserve(requests);
  for (int64_t r = 0; r < requests; ++r) {
    futures.push_back(server.Submit({r % dataset.num_users}));
  }
  int64_t served = 0;
  for (auto& future : futures) {
    served += future.get().status == ResponseStatus::kOk;
  }
  server.Shutdown();

  const ServerStats stats = server.stats();
  std::printf("served %lld/%lld  (shed %lld, deadline missed %lld, "
              "degraded %lld)\n",
              static_cast<long long>(served),
              static_cast<long long>(stats.submitted),
              static_cast<long long>(stats.shed),
              static_cast<long long>(stats.deadline_missed),
              static_cast<long long>(stats.degraded));
  std::printf("batches %lld (multi-user %lld, batched requests %lld, "
              "preempted %lld)\n",
              static_cast<long long>(stats.forward_batches),
              static_cast<long long>(stats.multi_user_batches),
              static_cast<long long>(stats.batched_requests),
              static_cast<long long>(stats.deadline_preempted));
  std::printf("tier mix:");
  for (int t = 0; t < kNumServeTiers; ++t) {
    std::printf("  %s %lld", ServeTierName(static_cast<ServeTier>(t)),
                static_cast<long long>(stats.tier_count[t]));
  }
  std::printf("\nlatency p50 <= %lldus  p99 <= %lldus\n",
              static_cast<long long>(stats.latency.PercentileUpperBound(0.5)),
              static_cast<long long>(stats.latency.PercentileUpperBound(0.99)));
  MaybeExportObs(flags);
  return 0;
}

int CmdStream(const std::map<std::string, std::string>& flags) {
  int64_t updates, workers, warm_cache, sample_k, depth;
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  if (!ParseIntFlag(flags, "updates", -1, -1, kMax, &updates) ||
      !ParseIntFlag(flags, "workers", 0, 0, 1024, &workers) ||
      !ParseIntFlag(flags, "warm_cache", 0, 0, kMax, &warm_cache) ||
      !ParseIntFlag(flags, "k", 30, 1, kMax, &sample_k) ||
      !ParseIntFlag(flags, "depth", 3, 1, 64, &depth)) {
    return 2;
  }
  const std::string wal_dir = FlagOr(flags, "wal", "");
  if (wal_dir.empty()) {
    std::fprintf(stderr, "stream requires --wal DIR\n%s", kUsage);
    return 2;
  }

  MaybeEnableObs(flags);
  const std::string data_dir = FlagOr(flags, "data", ".");
  Dataset dataset;
  const Status loaded = TryLoadDataset(data_dir, &dataset);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load dataset: %s\n",
                 loaded.message().c_str());
    return 1;
  }
  std::printf("loaded %s\n", dataset.Summary().c_str());
  if (dataset.kind != SplitKind::kTemporal) {
    std::printf("note: dataset is not a temporal split; the test rows will "
                "be replayed in file order\n");
  }

  // The server answers over the *training* graph while the streaming layer
  // evolves its own copy; the bridge between them is cache invalidation —
  // each applied update drops exactly the touched users' cached scores.
  const Ckg ckg = dataset.BuildCkg();
  const PprTable ppr = PprTable::Compute(ckg, PprTableOptions(), &GlobalPool());
  KucnetOptions model_opts;
  model_opts.sample_k = sample_k;
  model_opts.depth = static_cast<int>(depth);
  Kucnet model(&dataset, &ckg, &ppr, model_opts);
  RecServerOptions server_opts;
  server_opts.num_workers = static_cast<int>(workers);
  server_opts.warm_cache_users = warm_cache;
  if (server_opts.warm_cache_users > server_opts.cache.capacity) {
    server_opts.cache.capacity = server_opts.warm_cache_users;
  }
  RecServer server(&model, &dataset, &ckg, &ppr, server_opts);

  std::unique_ptr<StreamingCkg> stream;
  const Status opened = StreamingCkg::Open(dataset, /*fs=*/nullptr, wal_dir,
                                           StreamingCkgOptions(), &GlobalPool(),
                                           &stream);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open streaming CKG: %s\n",
                 opened.message().c_str());
    return 1;
  }
  const int64_t recovered = stream->stats().replayed;
  if (recovered > 0) {
    std::printf("recovered %lld updates from the WAL in %s\n",
                static_cast<long long>(recovered), wal_dir.c_str());
  }
  stream->set_invalidation_hook(
      [&server](const std::vector<int64_t>& users) {
        server.InvalidateUsers(users);
      });

  // Replay the held-out suffix as live updates, skipping what a previous
  // run already streamed, and serve one interleaved request per update.
  // Every request must be answered (possibly degraded) — the serving layer
  // never goes dark while the graph changes underneath it.
  const int64_t total = static_cast<int64_t>(dataset.test.size());
  const int64_t begin = std::min(recovered, total);
  const int64_t end =
      updates < 0 ? total : std::min(total, begin + updates);
  int64_t answered = 0, unanswered = 0;
  for (int64_t k = begin; k < end; ++k) {
    const auto& [user, item] = dataset.test[k];
    const Status appended = stream->AppendInteraction(user, item);
    if (!appended.ok()) {
      std::fprintf(stderr, "update %lld rejected: %s\n",
                   static_cast<long long>(k), appended.message().c_str());
      return 1;
    }
    const RecResponse response = server.ServeSync({user});
    (response.status == ResponseStatus::kOk ? answered : unanswered) += 1;
  }
  server.Shutdown();

  const StreamingCkgStats& stats = stream->stats();
  std::printf("streamed %lld updates (%lld applied, %lld duplicates); "
              "wal next_seq %lld, %lld sealed segments\n",
              static_cast<long long>(end - begin),
              static_cast<long long>(stats.applied),
              static_cast<long long>(stats.duplicates),
              static_cast<long long>(stream->wal().next_seq()),
              static_cast<long long>(stream->wal().segments_sealed()));
  std::printf("invalidated %lld touched users (cache dropped %lld entries "
              "by generation)\n",
              static_cast<long long>(stats.invalidated_users),
              static_cast<long long>(server.cache().user_invalidations()));
  std::printf("served %lld/%lld interleaved requests (%lld unanswered)\n",
              static_cast<long long>(answered),
              static_cast<long long>(end - begin),
              static_cast<long long>(unanswered));
  MaybeExportObs(flags);
  return 0;
}

// Generate -> save -> mmap-reload -> verify -> PPR smoke over the graph
// store (src/store/). Defaults are the reduced `scale`-label CI
// configuration; the full 10^6-user run is `--users 1000000 --items 100000
// --entities 900000 --triplets 10000000`.
int CmdWebScale(const std::map<std::string, std::string>& flags) {
  WebScaleConfig reduced = WebScaleReducedConfig();
  int64_t users, items, entities, relations, triplets, interactions, seed,
      ppr_users;
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  if (!ParseIntFlag(flags, "users", reduced.num_users, 1, kMax, &users) ||
      !ParseIntFlag(flags, "items", reduced.num_items, 1, kMax, &items) ||
      !ParseIntFlag(flags, "entities", reduced.num_entities, 0, kMax,
                    &entities) ||
      !ParseIntFlag(flags, "relations", reduced.num_kg_relations, 1, 65535,
                    &relations) ||
      !ParseIntFlag(flags, "triplets", reduced.num_kg_triplets, 0, kMax,
                    &triplets) ||
      !ParseIntFlag(flags, "interactions", reduced.interactions_per_user, 0,
                    kMax, &interactions) ||
      !ParseIntFlag(flags, "seed", static_cast<int64_t>(reduced.seed), 0, kMax,
                    &seed) ||
      !ParseIntFlag(flags, "ppr_users", 8, 0, kMax, &ppr_users)) {
    return 2;
  }
  const std::string out_path = FlagOr(flags, "out", "");
  if (out_path.empty()) {
    std::fprintf(stderr, "webscale requires --out FILE\n%s", kUsage);
    return 2;
  }

  MaybeEnableObs(flags);
  WebScaleConfig config = reduced;
  config.num_users = users;
  config.num_items = items;
  config.num_entities = entities;
  config.num_kg_relations = relations;
  config.num_kg_triplets = triplets;
  config.interactions_per_user = interactions;
  config.seed = static_cast<uint64_t>(seed);
  const Status valid = ValidateWebScaleConfig(config);
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 valid.message().c_str());
    return 2;
  }

  FileSystem& fs = FsOrDefault(nullptr);
  Stopwatch generate_timer;
  const Status generated = GenerateWebScaleContainer(fs, out_path, config);
  if (!generated.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 generated.message().c_str());
    return 1;
  }
  const double generate_seconds = generate_timer.Seconds();

  // Reload the container through the mmap path and verify it end to end:
  // the round trip, not the in-memory graph, is what the command certifies.
  Ckg graph;
  StoreLoadStats load_stats;
  Stopwatch load_timer;
  StoreLoadOptions load_options;
  const Status loaded =
      LoadCkgContainer(fs, out_path, load_options, &graph, &load_stats);
  if (!loaded.ok()) {
    std::fprintf(stderr, "reload failed: %s\n", loaded.message().c_str());
    return 1;
  }
  const double load_seconds = load_timer.Seconds();
  const Status topology = graph.ValidateTopology();
  if (!topology.ok()) {
    std::fprintf(stderr, "topology check failed: %s\n",
                 topology.message().c_str());
    return 1;
  }

  const int64_t smoke_users = std::min(ppr_users, graph.num_users());
  int64_t ppr_entries = 0;
  for (int64_t u = 0; u < smoke_users; ++u) {
    ppr_entries +=
        static_cast<int64_t>(PprForwardPush(graph, graph.UserNode(u)).size());
  }

  const int64_t nodes = graph.num_nodes();
  const int64_t edges = graph.num_edges();
  const double bytes_per_edge =
      edges > 0 ? static_cast<double>(graph.bytes_resident()) /
                      static_cast<double>(edges)
                : 0.0;
  const int64_t int64_bytes = (nodes + 1) * 8 + edges * 16;
  std::printf("generated %s: %lld nodes, %lld directed edges in %.2fs\n",
              config.name.c_str(), static_cast<long long>(nodes),
              static_cast<long long>(edges), generate_seconds);
  std::printf("container %s: %lld bytes, reloaded (%s) in %.3fs\n",
              out_path.c_str(), static_cast<long long>(load_stats.file_bytes),
              load_stats.mmap_backed ? "mmap" : "full read", load_seconds);
  std::printf("resident %lld bytes  %.2f bytes/edge  %.1f%% of the int64 "
              "layout\n",
              static_cast<long long>(graph.bytes_resident()), bytes_per_edge,
              100.0 * static_cast<double>(graph.bytes_resident()) /
                  static_cast<double>(int64_bytes));
  std::printf("ppr smoke: %lld users pushed, %lld estimate entries\n",
              static_cast<long long>(smoke_users),
              static_cast<long long>(ppr_entries));
  MaybeExportObs(flags);
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    std::printf("%s", kUsage);
    return 2;
  }
  const std::string command = argv[1];
  static const std::map<std::string, std::set<std::string>> kKnownFlags = {
      {"generate", {"config", "split", "out", "seed"}},
      {"train",
       {"data", "model", "epochs", "k", "depth", "ckpt", "checkpoint_dir",
        "checkpoint_every", "resume", "metrics_out", "trace_out"}},
      {"evaluate",
       {"data", "model", "ckpt", "k", "depth", "metrics_out", "trace_out"}},
      {"serve",
       {"data", "ckpt", "k", "depth", "requests", "workers", "deadline_us",
        "top_n", "queue", "shards", "retries", "hedge_us", "tenant_quota",
        "tenant_window_us", "warm_cache", "batch_max_users",
        "batch_linger_us", "metrics_out", "trace_out"}},
      {"stream",
       {"data", "wal", "updates", "workers", "warm_cache", "k", "depth",
        "metrics_out", "trace_out"}},
      {"webscale",
       {"out", "users", "items", "entities", "relations", "triplets",
        "interactions", "seed", "ppr_users", "metrics_out", "trace_out"}},
      {"models", {}},
  };
  const auto known = kKnownFlags.find(command);
  if (known == kKnownFlags.end()) {
    std::fprintf(stderr, "unknown command: %s\n%s", command.c_str(), kUsage);
    return 2;
  }
  std::map<std::string, std::string> flags;
  if (!ParseFlags(argc, argv, known->second, &flags)) return 2;
  if (command == "models") {
    for (const auto& name : AllModelNames()) std::printf("%s\n", name.c_str());
    return 0;
  }
  if (command == "generate") return CmdGenerate(flags);
  if (command == "train") return CmdTrainOrEvaluate(flags, /*train=*/true);
  if (command == "evaluate") return CmdTrainOrEvaluate(flags, /*train=*/false);
  if (command == "stream") return CmdStream(flags);
  if (command == "webscale") return CmdWebScale(flags);
  return CmdServe(flags);
}

}  // namespace
}  // namespace kucnet

int main(int argc, char** argv) { return kucnet::Run(argc, argv); }
