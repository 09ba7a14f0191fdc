// Streaming-CKG replay benchmark.
//
// Replays the held-out suffix of a temporal split into a `StreamingCkg`
// (src/stream/) while a `RecServer` keeps answering over the training-time
// graph, and records three things:
//
//   1. repair_vs_recompute — per-update wall time of the incremental PPR
//      repair (WAL append + edge insert + signed local push) against a full
//      forward-push recompute on the same post-insert graph. The entire
//      point of incremental maintenance is that the repair is much cheaper;
//      the p50 speedup must be >= 5x, enforced as a hard check.
//   2. serving_while_streaming — interleaved ServeSync requests (the
//      update's own user plus a skewed random user) while the invalidation
//      hook drops exactly the touched users' cached scores. Zero unanswered
//      requests is a hard check: the serving layer never goes dark while
//      the graph changes underneath it.
//   3. staleness — at end of stream, the repaired estimates against a fresh
//      recompute, per user. The theory bound (|inc - fresh| <= the two
//      residual masses; see ppr/dynamic_ppr.h) must hold, also hard-checked.
//
// The WAL lives on an InMemoryFileSystem so the repair/recompute comparison
// isolates compute; real-disk durability cost is the WAL's own business and
// is exercised by the crash sweep in tests/stream_test.cc instead.
//
//   stream_replay [OUTPUT.json] [NUM_UPDATES]
//
// Writes a machine-readable JSON array (default BENCH_stream.json), one
// object per phase.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/kucnet.h"
#include "ppr/dynamic_ppr.h"
#include "serve/rec_server.h"
#include "stream/streaming_ckg.h"
#include "util/clock.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kucnet {
namespace {

/// Full recompute is measured on every kRecomputeStride-th applied update
/// (measuring it on all of them would dominate the benchmark's own runtime
/// without changing the percentiles).
constexpr int64_t kRecomputeStride = 8;

int64_t Percentile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto idx =
      static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

/// Zipf-ish hot-key skew, matching fleet_replay: log-uniform over [0, n).
int64_t SkewedUser(Rng& rng, int64_t n) {
  const double u = rng.Uniform();
  const int64_t user =
      static_cast<int64_t>(std::exp(u * std::log(static_cast<double>(n)))) - 1;
  return std::min(std::max<int64_t>(user, 0), n - 1);
}

/// Max |a - b| over the union of two flat PPR vectors (a missing entry
/// reads 0).
double MaxDelta(const FlatPprVector& a, const FlatPprVector& b) {
  double max_delta = 0.0;
  for (const auto& [node, value] : a) {
    max_delta = std::max(max_delta, std::abs(value - FlatPprValue(b, node)));
  }
  for (const auto& [node, value] : b) {
    max_delta = std::max(max_delta, std::abs(value - FlatPprValue(a, node)));
  }
  return max_delta;
}

struct RepairResult {
  int64_t updates = 0;
  int64_t applied = 0;
  int64_t duplicates = 0;
  int64_t repair_p50_us = 0;
  int64_t repair_p99_us = 0;
  int64_t recompute_p50_us = 0;
  int64_t recompute_samples = 0;
  double p50_speedup = 0.0;
};

struct ServingResult {
  int64_t requests = 0;
  int64_t answered = 0;
  int64_t unanswered = 0;
  int64_t serve_p50_us = 0;
  int64_t serve_p99_us = 0;
  int64_t tier_count[kNumServeTiers] = {};
  int64_t invalidated_users = 0;
  int64_t cache_user_invalidations = 0;
};

struct StalenessResult {
  int64_t users = 0;
  double max_score_delta = 0.0;
  double max_agreement_bound = 0.0;
  double mean_residual_mass = 0.0;
};

void WriteJson(const std::string& path, const RepairResult& repair,
               const ServingResult& serving, const StalenessResult& stale) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  KUC_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f,
               "[\n"
               "  {\"phase\": \"repair_vs_recompute\", \"updates\": %lld, "
               "\"applied\": %lld, \"duplicates\": %lld, "
               "\"repair_p50_us\": %lld, \"repair_p99_us\": %lld, "
               "\"recompute_p50_us\": %lld, \"recompute_samples\": %lld, "
               "\"p50_speedup\": %.2f},\n",
               static_cast<long long>(repair.updates),
               static_cast<long long>(repair.applied),
               static_cast<long long>(repair.duplicates),
               static_cast<long long>(repair.repair_p50_us),
               static_cast<long long>(repair.repair_p99_us),
               static_cast<long long>(repair.recompute_p50_us),
               static_cast<long long>(repair.recompute_samples),
               repair.p50_speedup);
  std::fprintf(f,
               "  {\"phase\": \"serving_while_streaming\", "
               "\"requests\": %lld, \"answered\": %lld, "
               "\"unanswered\": %lld, \"serve_p50_us\": %lld, "
               "\"serve_p99_us\": %lld, \"tier_mix\": {",
               static_cast<long long>(serving.requests),
               static_cast<long long>(serving.answered),
               static_cast<long long>(serving.unanswered),
               static_cast<long long>(serving.serve_p50_us),
               static_cast<long long>(serving.serve_p99_us));
  for (int t = 0; t < kNumServeTiers; ++t) {
    std::fprintf(f, "%s\"%s\": %lld", t == 0 ? "" : ", ",
                 ServeTierName(static_cast<ServeTier>(t)),
                 static_cast<long long>(serving.tier_count[t]));
  }
  std::fprintf(f,
               "}, \"invalidated_users\": %lld, "
               "\"cache_user_invalidations\": %lld},\n",
               static_cast<long long>(serving.invalidated_users),
               static_cast<long long>(serving.cache_user_invalidations));
  std::fprintf(f,
               "  {\"phase\": \"staleness\", \"users\": %lld, "
               "\"max_score_delta\": %.3e, \"max_agreement_bound\": %.3e, "
               "\"mean_residual_mass\": %.3e}\n]\n",
               static_cast<long long>(stale.users), stale.max_score_delta,
               stale.max_agreement_bound, stale.mean_residual_mass);
  std::fclose(f);
}

int Main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_stream.json";
  const int64_t num_updates = argc > 2 ? std::atoll(argv[2]) : 160;

  bench::PrintHeader("Streaming CKG replay (BENCH_stream.json)");
  bench::Workload workload =
      bench::MakeWorkload("synth-lastfm", SplitKind::kTemporal);
  std::printf("workload: %s\n", workload.dataset.Summary().c_str());

  KucnetOptions model_opts;
  model_opts.sample_k = 30;
  model_opts.depth = 3;
  Kucnet model(&workload.dataset, &workload.ckg, &workload.ppr, model_opts);

  RecServerOptions server_opts;
  server_opts.num_workers = 0;  // ServeSync only; latency is what we measure
  server_opts.warm_cache_users = 64;
  if (server_opts.warm_cache_users > server_opts.cache.capacity) {
    server_opts.cache.capacity = server_opts.warm_cache_users;
  }
  RecServer server(&model, &workload.dataset, &workload.ckg, &workload.ppr,
                   server_opts);

  InMemoryFileSystem mem;
  std::unique_ptr<StreamingCkg> stream;
  KUC_CHECK(StreamingCkg::Open(workload.dataset, &mem, "wal",
                               StreamingCkgOptions(), &GlobalPool(), &stream)
                .ok());

  ServingResult serving;
  stream->set_invalidation_hook(
      [&server](const std::vector<int64_t>& users) {
        server.InvalidateUsers(users);
      });

  const int64_t total = static_cast<int64_t>(workload.dataset.test.size());
  const int64_t end = std::min(total, num_updates);
  const int64_t num_users = workload.dataset.num_users;
  Rng rng(7);
  std::vector<int64_t> repair_us, recompute_us, serve_us;

  for (int64_t k = 0; k < end; ++k) {
    const auto& [user, item] = workload.dataset.test[k];
    const int64_t applied_before = stream->stats().applied;
    Stopwatch repair_timer;
    KUC_CHECK(stream->AppendInteraction(user, item).ok());
    const int64_t repair_elapsed = repair_timer.ElapsedMicros();
    const bool was_applied = stream->stats().applied > applied_before;
    if (was_applied) {
      repair_us.push_back(repair_elapsed);
      if (stream->stats().applied % kRecomputeStride == 0) {
        Stopwatch recompute_timer;
        DynamicPprTable fresh = DynamicPprTable::Compute(
            stream->graph(), StreamingCkgOptions().ppr, &GlobalPool());
        recompute_us.push_back(recompute_timer.ElapsedMicros());
        KUC_CHECK(fresh.num_users() == num_users);
      }
    }

    // Two interleaved requests: the user whose cache entry the update just
    // dropped (worst case: guaranteed recompute) and a skewed random user
    // (steady-state mix, cache hits included).
    for (const int64_t who : {user, SkewedUser(rng, num_users)}) {
      RecRequest request;
      request.user = who;
      Stopwatch serve_timer;
      const RecResponse response = server.ServeSync(request);
      serve_us.push_back(serve_timer.ElapsedMicros());
      ++serving.requests;
      if (response.status == ResponseStatus::kOk && !response.items.empty()) {
        ++serving.answered;
        ++serving.tier_count[static_cast<int>(response.tier)];
      } else {
        ++serving.unanswered;
      }
    }
  }

  RepairResult repair;
  repair.updates = end;
  repair.applied = stream->stats().applied;
  repair.duplicates = stream->stats().duplicates;
  repair.repair_p50_us = Percentile(repair_us, 0.5);
  repair.repair_p99_us = Percentile(repair_us, 0.99);
  repair.recompute_p50_us = Percentile(recompute_us, 0.5);
  repair.recompute_samples = static_cast<int64_t>(recompute_us.size());
  repair.p50_speedup =
      static_cast<double>(repair.recompute_p50_us) /
      static_cast<double>(std::max<int64_t>(repair.repair_p50_us, 1));

  serving.serve_p50_us = Percentile(serve_us, 0.5);
  serving.serve_p99_us = Percentile(serve_us, 0.99);
  serving.invalidated_users = stream->stats().invalidated_users;
  serving.cache_user_invalidations = server.cache().user_invalidations();

  // End-of-stream staleness: repaired estimates vs a fresh recompute on the
  // final graph, bounded per user by the two residual masses (the agreement
  // bound from ppr/dynamic_ppr.h, same check the stream diff_fuzz runs).
  const DynamicPprTable fresh = DynamicPprTable::Compute(
      stream->graph(), StreamingCkgOptions().ppr, &GlobalPool());
  StalenessResult stale;
  stale.users = num_users;
  double residual_sum = 0.0;
  for (int64_t user = 0; user < num_users; ++user) {
    const double delta =
        MaxDelta(stream->ppr().Estimate(user), fresh.Estimate(user));
    const double bound =
        stream->ppr().ResidualMass(user) + fresh.ResidualMass(user) + 1e-12;
    KUC_CHECK(delta <= bound)
        << "user " << user << ": repaired estimate drifted " << delta
        << " from recompute, bound " << bound;
    stale.max_score_delta = std::max(stale.max_score_delta, delta);
    stale.max_agreement_bound = std::max(stale.max_agreement_bound, bound);
    residual_sum += stream->ppr().ResidualMass(user);
  }
  stale.mean_residual_mass = residual_sum / static_cast<double>(num_users);

  std::printf("updates: %lld (%lld applied, %lld duplicates)\n",
              static_cast<long long>(repair.updates),
              static_cast<long long>(repair.applied),
              static_cast<long long>(repair.duplicates));
  std::printf("incremental repair p50: %lldus  p99: %lldus\n",
              static_cast<long long>(repair.repair_p50_us),
              static_cast<long long>(repair.repair_p99_us));
  std::printf("full recompute p50: %lldus (%lld samples) -> %.1fx speedup\n",
              static_cast<long long>(repair.recompute_p50_us),
              static_cast<long long>(repair.recompute_samples),
              repair.p50_speedup);
  std::printf("served %lld/%lld requests, p50 %lldus p99 %lldus\n",
              static_cast<long long>(serving.answered),
              static_cast<long long>(serving.requests),
              static_cast<long long>(serving.serve_p50_us),
              static_cast<long long>(serving.serve_p99_us));
  std::printf("invalidated %lld users (%lld cache bumps)\n",
              static_cast<long long>(serving.invalidated_users),
              static_cast<long long>(serving.cache_user_invalidations));
  std::printf("staleness: max delta %.3e within bound %.3e\n",
              stale.max_score_delta, stale.max_agreement_bound);

  // The claims this benchmark exists to make, enforced rather than eyeballed.
  KUC_CHECK(serving.unanswered == 0)
      << serving.unanswered << " requests went unanswered while streaming";
  KUC_CHECK(repair.p50_speedup >= 5.0)
      << "incremental repair is only " << repair.p50_speedup
      << "x faster than full recompute at p50 (need >= 5x)";

  WriteJson(json_path, repair, serving, stale);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace kucnet

int main(int argc, char** argv) { return kucnet::Main(argc, argv); }
