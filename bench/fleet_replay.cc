// Fleet-serving replay benchmark.
//
// Drives a three-shard `ShardRouter` (src/serve/fleet/) through a fixed set
// of failure scenarios with a closed-loop client pool and Zipf-skewed users,
// and records per scenario: latency percentiles, the fleet tier / path mix,
// retry & hedge counts, quota sheds, breaker transitions, and the cached
// share of answers. The point of the exercise is that the fleet degrades but
// never refuses: a mid-run shard kill at 4x load must leave zero requests
// unanswered and must show the warm cached tier absorbing traffic, both
// enforced with hard checks rather than eyeballed.
//
//   fleet_replay [OUTPUT.json] [REQUESTS_PER_SCENARIO]
//
// Writes BENCH_fleet.json (or OUTPUT.json) through bench::WriteBenchJson:
// one row per scenario, latency percentiles taken from raw samples.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/kucnet.h"
#include "serve/fleet/shard_fault.h"
#include "serve/fleet/shard_router.h"
#include "serve/rec_server.h"
#include "tensor/serialize.h"
#include "util/logging.h"
#include "util/rng.h"

namespace kucnet {
namespace {

constexpr int kShards = 3;
constexpr int kWorkersPerShard = 2;

/// One scenario's knobs. Clients run a closed loop, so offered load relative
/// to fleet capacity is clients / (shards * workers).
struct Scenario {
  std::string name;
  int clients = kShards * kWorkersPerShard;  // 1x
  bool hedging = false;
  /// Stall this shard for `stall_micros` per attempt from the start.
  int stalled_shard = -1;
  int64_t stall_micros = 0;
  /// Kill this shard once half the requests have been issued.
  int killed_shard = -1;
  /// Per-tenant quota (0 = unlimited); clients alternate tenants 0/1.
  int64_t tenant_quota = 0;
  /// Rolling-swap the fleet to `swap_checkpoint` at the halfway mark.
  std::string swap_checkpoint = {};
  /// Hard floor on the cached share of answers (the shard-kill scenario
  /// proves the warm cache is live, not decorative).
  bool require_cached_share = false;
};

struct ScenarioResult {
  std::string name;
  double offered_load = 0.0;
  int64_t requests = 0;
  FleetStats stats;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  double cached_share = 0.0;
};

/// Zipf-ish hot-key skew: log-uniform over [0, n), so user 0 is hottest and
/// the tail is cold — the regime where a warm score cache earns its keep.
int64_t SkewedUser(Rng& rng, int64_t n) {
  const double u = rng.Uniform();
  const int64_t user =
      static_cast<int64_t>(std::exp(u * std::log(static_cast<double>(n)))) - 1;
  return std::min(std::max<int64_t>(user, 0), n - 1);
}

/// Median full-tier ServeSync latency, to calibrate deadlines and stalls:
/// an untimed pass over every user warms the allocator, caches and pool,
/// then the median is taken over a second pass over every user, so it does
/// not hang on which few users come first.
int64_t MeasureServiceMicros(const Kucnet& model, const bench::Workload& w) {
  RecServerOptions opts;
  opts.num_workers = 0;
  opts.default_deadline_micros = 60'000'000;
  RecServer server(&model, &w.dataset, &w.ckg, &w.ppr, opts);
  const int64_t users = w.dataset.num_users;
  for (int64_t user = 0; user < users; ++user) server.ServeSync({user});
  std::vector<int64_t> micros;
  for (int64_t user = 0; user < users; ++user) {
    const RecResponse r = server.ServeSync({user});
    if (r.tier == ServeTier::kFull) micros.push_back(r.total_micros);
  }
  KUC_CHECK(!micros.empty()) << "no full-tier answer to calibrate from";
  return std::max<int64_t>(1, bench::Percentile(micros, 0.5));
}

ScenarioResult RunScenario(const Scenario& scenario,
                           std::vector<Kucnet*> models,
                           const bench::Workload& w, int64_t service_us,
                           int64_t num_requests) {
  ShardFaultInjector shard_faults;
  if (scenario.stalled_shard >= 0) {
    shard_faults.Stall(scenario.stalled_shard, scenario.stall_micros);
  }

  ShardRouterOptions options;
  options.shard_fault = &shard_faults;
  options.max_retries = 2;
  options.hedging = scenario.hedging;
  // Hedge once the accepted answer is clearly slower than healthy service;
  // a stalled replica then loses to its sibling on latency.
  options.hedge_latency_micros = 4 * service_us;
  options.unhealthy_latency_micros =
      scenario.stalled_shard >= 0 ? 8 * service_us : 0;
  options.tenant.quota = scenario.tenant_quota;
  options.tenant.window_micros = 60'000'000;  // one window spans the run
  options.server.num_workers = kWorkersPerShard;
  options.server.queue_capacity = 32;
  options.server.default_deadline_micros = 4 * service_us;
  // Every shard warms every user: a retried or hedged request for a foreign
  // user must be able to land on the sibling's cached tier.
  options.server.warm_cache_users = w.dataset.num_users;
  options.server.cache.capacity = w.dataset.num_users;
  ShardRouter router(std::move(models), &w.dataset, &w.ckg, &w.ppr, options);

  // One latency sample list per client, merged after the join.
  std::vector<std::vector<int64_t>> micros(scenario.clients);
  std::atomic<int64_t> issued{0};
  std::atomic<int64_t> unanswered{0};

  // Control-plane action fired by whichever client draws the halfway ticket.
  std::function<void()> at_halfway;
  if (scenario.killed_shard >= 0) {
    at_halfway = [&] { shard_faults.Kill(scenario.killed_shard); };
  } else if (!scenario.swap_checkpoint.empty()) {
    at_halfway = [&] {
      const Status s = router.RollingSwap(scenario.swap_checkpoint);
      KUC_CHECK(s.ok()) << "rolling swap failed: " << s.message();
    };
  }

  auto client = [&](int id) {
    Rng rng(0xf1ee7 + static_cast<uint64_t>(id));
    while (true) {
      const int64_t ticket = issued.fetch_add(1);
      if (ticket >= num_requests) break;
      if (ticket == num_requests / 2 && at_halfway) at_halfway();
      FleetRequest request;
      request.request.user = SkewedUser(rng, w.dataset.num_users);
      request.tenant = id % 2;
      const FleetResponse r = router.Route(request);
      if (r.path == FleetPath::kQuotaShed) continue;
      if (r.response.status != ResponseStatus::kOk ||
          r.response.items.empty()) {
        unanswered.fetch_add(1);
        continue;
      }
      micros[id].push_back(r.total_micros);
    }
  };
  std::vector<std::thread> clients;
  clients.reserve(scenario.clients);
  for (int c = 0; c < scenario.clients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  router.Shutdown();

  // The fleet contract: every routed request is answered unless the tenant
  // quota explicitly shed it — even mid-kill, mid-stall, mid-swap.
  KUC_CHECK(unanswered.load() == 0)
      << scenario.name << ": " << unanswered.load() << " requests unanswered";

  ScenarioResult result;
  result.name = scenario.name;
  result.offered_load = static_cast<double>(scenario.clients) /
                        (kShards * kWorkersPerShard);
  result.requests = num_requests;
  result.stats = router.stats();
  KUC_CHECK(result.stats.answered + result.stats.quota_shed ==
            result.stats.submitted)
      << scenario.name << ": answered + shed != submitted";
  std::vector<int64_t> all;
  for (const std::vector<int64_t>& client_micros : micros) {
    all.insert(all.end(), client_micros.begin(), client_micros.end());
  }
  result.p50_us = bench::Percentile(all, 0.5);
  result.p99_us = bench::Percentile(all, 0.99);
  const int64_t cached =
      result.stats.tier_count[static_cast<int>(ServeTier::kCached)];
  result.cached_share =
      static_cast<double>(cached) /
      static_cast<double>(std::max<int64_t>(1, result.stats.answered));
  if (scenario.require_cached_share) {
    KUC_CHECK(cached > 0) << scenario.name
                          << ": cached tier served nothing under overload";
  }
  return result;
}

bench::JsonObject ScenarioRow(const ScenarioResult& r) {
  const FleetStats& s = r.stats;
  bench::JsonObject tiers;
  for (int t = 0; t < kNumServeTiers; ++t) {
    tiers.Int(ServeTierName(static_cast<ServeTier>(t)), s.tier_count[t]);
  }
  bench::JsonObject paths;
  for (int p = 0; p < kNumFleetPaths; ++p) {
    paths.Int(FleetPathName(static_cast<FleetPath>(p)), s.path_count[p]);
  }
  bench::JsonObject row;
  row.Str("scenario", r.name)
      .Num("offered_load", r.offered_load)
      .Int("requests", r.requests)
      .Int("answered", s.answered)
      .Int("p50_us", r.p50_us)
      .Int("p99_us", r.p99_us)
      .Obj("tier_mix", tiers)
      .Obj("path_mix", paths)
      .Int("retries", s.retries)
      .Int("hedges", s.hedges)
      .Int("hedges_won", s.hedges_won)
      .Int("hedges_lost", s.hedges_lost)
      .Int("quota_shed", s.quota_shed)
      .Int("fallback_answers", s.fallback_answers)
      .Num("cached_share", r.cached_share)
      .Int("breaker_transitions", s.breaker_transitions)
      .Int("swaps", s.swaps);
  return row;
}

int Main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_fleet.json";
  const int64_t num_requests = argc > 2 ? std::atoll(argv[2]) : 240;

  bench::PrintHeader("Fleet serving under failure (BENCH_fleet.json)");
  bench::Workload workload =
      bench::MakeWorkload("synth-lastfm", SplitKind::kTraditional);
  // One model replica per shard, identically constructed (same seed) so the
  // fleet is weight-homogeneous, as after a converged rollout. Untrained:
  // latency and routing behavior are properties of the pipeline.
  KucnetOptions model_opts;
  model_opts.sample_k = 30;
  model_opts.depth = 3;
  std::vector<std::unique_ptr<Kucnet>> owned;
  for (int s = 0; s < kShards; ++s) {
    owned.push_back(std::make_unique<Kucnet>(&workload.dataset, &workload.ckg,
                                             &workload.ppr, model_opts));
  }
  const int64_t service_us = MeasureServiceMicros(*owned[0], workload);
  std::printf("calibrated full-tier service time: %lldus\n",
              static_cast<long long>(service_us));

  // Checkpoint for the rolling-swap scenario: the fleet's own weights, so
  // the swap exercises drain/reload/rewarm without changing behavior.
  const std::string swap_ckpt = json_path + ".swap.ckpt";
  KUC_CHECK(TrySaveParameters(owned[0]->Params(), swap_ckpt).ok());

  std::vector<Scenario> scenarios;
  scenarios.push_back({.name = "steady_1x"});
  scenarios.push_back({.name = "burst_4x", .clients = 24});
  scenarios.push_back({.name = "shard_kill_4x",
                       .clients = 24,
                       .killed_shard = 0,
                       .require_cached_share = true});
  scenarios.push_back({.name = "shard_stall_hedge",
                       .hedging = true,
                       .stalled_shard = 0,
                       .stall_micros = 12 * service_us});
  scenarios.push_back(
      {.name = "tenant_quota", .tenant_quota = num_requests / 8});
  scenarios.push_back(
      {.name = "rolling_swap", .swap_checkpoint = swap_ckpt});

  std::vector<bench::JsonObject> rows;
  for (const Scenario& scenario : scenarios) {
    std::vector<Kucnet*> models;
    for (auto& m : owned) models.push_back(m.get());
    const ScenarioResult r =
        RunScenario(scenario, std::move(models), workload, service_us,
                    num_requests);
    const FleetStats& s = r.stats;
    std::printf(
        "%-18s %.1fx: p50 %lldus  p99 %lldus  answered %lld  retries %lld  "
        "hedges %lld/%lld  shed %lld  fallback %lld  cached %.1f%%  "
        "breaker %lld  swaps %lld\n",
        r.name.c_str(), r.offered_load, static_cast<long long>(r.p50_us),
        static_cast<long long>(r.p99_us),
        static_cast<long long>(s.answered),
        static_cast<long long>(s.retries),
        static_cast<long long>(s.hedges_won),
        static_cast<long long>(s.hedges),
        static_cast<long long>(s.quota_shed),
        static_cast<long long>(s.fallback_answers), 100.0 * r.cached_share,
        static_cast<long long>(s.breaker_transitions),
        static_cast<long long>(s.swaps));
    rows.push_back(ScenarioRow(r));
  }
  bench::WriteBenchJson(json_path, rows);
  std::remove(swap_ckpt.c_str());
  std::printf("wrote %zu scenarios to %s\n", rows.size(), json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace kucnet

int main(int argc, char** argv) { return kucnet::Main(argc, argv); }
