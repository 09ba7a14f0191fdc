#ifndef KUCNET_SERVE_FLEET_SHARD_ROUTER_H_
#define KUCNET_SERVE_FLEET_SHARD_ROUTER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/fleet/shard_fault.h"
#include "serve/fleet/shard_health.h"
#include "serve/rec_server.h"
#include "util/rng.h"

/// \file
/// Sharded fleet serving: N in-process `RecServer` replicas behind one
/// router.
///
/// One RecServer process is a ceiling — and a single point of failure. The
/// `ShardRouter` partitions users across N replicas via consistent hashing
/// (virtual nodes on a 64-bit ring; the ring walk from a user's point gives
/// both its home shard and the deterministic sibling order used for
/// failover). Each shard carries its own model instance, score cache, and
/// circuit breaker, and the router survives whole-replica failure with a
/// fleet-level degrade chain that extends the per-server one:
///
///   home shard (full → cached → heuristic → popularity)
///     → health-gated retries on sibling shards (exponential backoff +
///       deterministic jitter)
///     → optional hedged send to a sibling when the answer was slow
///     → cross-shard popularity fallback (RecServer::RankPopular, infallible)
///
/// so the fleet never fails to answer. Whole-shard failure modes
/// (kill/stall/flap) are injectable via `ShardFaultInjector`; per-stage
/// faults inside a shard still flow through the `util/fault` seam each
/// server already honors. Rolling model swap drains one shard at a time,
/// hot-reloads a checkpoint into its model, invalidates + rewarms its score
/// cache, and re-admits it, while siblings keep answering. Per-tenant
/// admission quotas (fixed windows on the Clock seam) bound any one
/// tenant's share of the fleet. All time flows through `Clock`, so every
/// retry, breaker transition and hedge decision is deterministic under a
/// `FakeClock`.

namespace kucnet {

/// A recommendation request plus the tenant it bills to.
struct FleetRequest {
  RecRequest request;
  int64_t tenant = 0;
};

/// How the fleet produced (or refused) the answer.
enum class FleetPath {
  kPrimary = 0,   ///< the user's home shard answered on the first attempt
  kRetry = 1,     ///< a sibling answered after health-gated retries
  kHedge = 2,     ///< a hedged send beat the original answer
  kFallback = 3,  ///< no shard answered: cross-shard popularity fallback
  kQuotaShed = 4, ///< rejected at admission: tenant over quota
};
inline constexpr int kNumFleetPaths = 5;

/// Display name ("primary", "retry", "hedge", "fallback", "quota-shed").
const char* FleetPathName(FleetPath path);

/// What the router returns for every request.
struct FleetResponse {
  RecResponse response;     ///< the answering shard's response (or synthetic
                            ///< popularity/quota response)
  FleetPath path = FleetPath::kPrimary;
  int shard = -1;           ///< answering shard; -1 for fallback/quota-shed
  int attempts = 0;         ///< shard attempts made (primary+retries+hedges)
  int retries = 0;          ///< attempts after the first, excluding hedges
  bool hedged = false;      ///< a hedged send was issued
  bool hedge_won = false;   ///< ... and its answer was the one returned
  /// Why attempts failed / the hedge fired, "; "-separated (empty when the
  /// primary answered cleanly).
  std::string fleet_reason;
  /// Admission-to-answer latency measured by the router's clock, including
  /// stalls, backoff waits and hedges.
  int64_t total_micros = 0;
};

/// Per-tenant fixed-window admission quota.
struct TenantQuotaOptions {
  /// Requests a tenant may admit per window; 0 = unlimited.
  int64_t quota = 0;
  int64_t window_micros = 1'000'000;
};

/// Knobs of the router.
struct ShardRouterOptions {
  /// Ring points per shard. More virtual nodes = smoother user partition.
  int virtual_nodes_per_shard = 16;
  /// Sibling attempts after the primary one (0 = no retries).
  int max_retries = 2;
  /// Backoff before retry k (1-based): base * multiplier^(k-1) + jitter,
  /// jitter uniform in [0, retry_jitter_micros) from a seeded RNG — so the
  /// whole backoff schedule is deterministic for a given seed.
  int64_t retry_backoff_micros = 1'000;
  double retry_backoff_multiplier = 2.0;
  int64_t retry_jitter_micros = 256;
  uint64_t jitter_seed = 0x5eedf1ee7;
  /// Hedged sends: when the accepted answer took at least
  /// `hedge_latency_micros` (or arrived degraded below full), one extra
  /// attempt is sent to the next healthy sibling and the better answer wins
  /// (higher tier, then lower latency). Off by default.
  bool hedging = false;
  int64_t hedge_latency_micros = 20'000;
  /// An attempt slower than this counts as a breaker failure even when it
  /// answered (the stalling-replica detector). 0 = latency never fails.
  int64_t unhealthy_latency_micros = 0;
  CircuitBreakerOptions breaker;
  TenantQuotaOptions tenant;
  /// Template for every shard's server. `clock` and `fault` are overridden
  /// by the router's own seams below.
  RecServerOptions server;
  /// Time seam shared by router, breakers and shards (null = real clock).
  const Clock* clock = nullptr;
  /// Whole-shard fault seam (null = no injection).
  ShardFaultInjector* shard_fault = nullptr;
  /// Per-stage fault seam passed through to every shard's server.
  FaultInjector* stage_fault = nullptr;
  /// How the router waits (stalls, backoff): defaults to sleeping the real
  /// clock; FakeClock tests install `[&](int64_t us) { clock.AdvanceMicros(us); }`.
  std::function<void(int64_t)> wait_micros;
  /// Users rewarmed into a shard's cache after a rolling swap (-1 = reuse
  /// server.warm_cache_users).
  int64_t warm_after_swap_users = -1;
  /// Polling period while draining a shard for swap.
  int64_t drain_poll_micros = 100;
  /// Test seam: observed at each phase of a rolling swap ("draining",
  /// "swapped", "readmitted"), called outside router locks — the observer
  /// may issue Route() calls to exercise mid-swap traffic deterministically.
  std::function<void(int shard, const char* phase)> swap_observer;
};

/// Aggregated observable behavior of the fleet since construction.
struct FleetStats {
  int64_t submitted = 0;       ///< Route calls
  int64_t quota_shed = 0;      ///< rejected at fleet admission (tenant quota)
  int64_t answered = 0;        ///< non-quota-shed responses (always kOk)
  int64_t shard_answers = 0;   ///< ... answered by a shard
  int64_t fallback_answers = 0;///< ... answered by cross-shard popularity
  int64_t attempts = 0;        ///< shard attempts issued
  int64_t retries = 0;
  int64_t shard_down_failures = 0;   ///< attempts refused by ShardFaultInjector
  int64_t shard_error_failures = 0;  ///< attempts shed/rejected by the shard
  int64_t slow_attempt_failures = 0; ///< answered but over the latency bound
  int64_t hedges = 0;
  int64_t hedges_won = 0;
  int64_t hedges_lost = 0;
  int64_t breaker_rejections = 0;    ///< candidate shards skipped while open
  int64_t breaker_transitions = 0;   ///< summed across shards
  int64_t half_open_probes = 0;      ///< summed across shards
  int64_t draining_skips = 0;        ///< candidates skipped mid-swap
  int64_t swaps = 0;                 ///< shards successfully hot-swapped
  /// Fleet-level responses per tier (fallback counts as popularity).
  std::array<int64_t, kNumServeTiers> tier_count{};
  /// Per-path answer counts, indexed by FleetPath.
  std::array<int64_t, kNumFleetPaths> path_count{};
  /// Every shard server's ServerStats merged (ServerStats::MergeFrom).
  ServerStats shards;
};

/// The fleet front end. One model per shard (all pointers must outlive the
/// router); models are non-const because rolling swap hot-reloads weights
/// into them. Route() is thread-safe: concurrent callers are the fleet's
/// parallelism.
class ShardRouter {
 public:
  ShardRouter(std::vector<Kucnet*> shard_models, const Dataset* dataset,
              GraphRef ckg, const PprTable* ppr,
              ShardRouterOptions options);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Runs the fleet degrade chain for one request on the calling thread.
  /// Always returns: a quota shed is an explicit kOverloaded, everything
  /// else is kOk with a non-empty ranked list.
  FleetResponse Route(const FleetRequest& request);

  /// Hot-swaps every shard to the checkpoint at `path`, one shard at a
  /// time: drain (the router stops routing to it; queued work finishes),
  /// reload weights, invalidate + rewarm the score cache, re-admit.
  /// Siblings keep serving throughout. On a load failure the shard keeps
  /// its old weights and is re-admitted; the error is returned.
  Status RollingSwap(const std::string& checkpoint_path);

  /// Invalidates only the given users' cached scores on *every* shard.
  /// Called by the streaming layer with the users whose PPR neighborhoods a
  /// graph update touched. All shards are hit — not just each user's home
  /// shard — because retries and hedges can deposit a user's scores into any
  /// sibling's cache (see RecServer::InvalidateUsers).
  void InvalidateUsers(const std::vector<int64_t>& users);

  int num_shards() const { return static_cast<int>(servers_.size()); }

  /// The user's home shard on the hash ring.
  int ShardForUser(int64_t user) const;

  /// All shards in the user's deterministic failover order (home first).
  std::vector<int> PreferenceOrder(int64_t user) const;

  ShardHealth shard_health(int shard) const;
  bool shard_draining(int shard) const;

  /// Fleet-wide snapshot (counters + merged per-shard ServerStats).
  FleetStats stats() const;

  const RecServer& shard(int s) const { return *servers_[s]; }
  RecServer* mutable_shard(int s) { return servers_[s].get(); }
  const ShardRouterOptions& options() const { return options_; }

  /// Shuts every shard server down. Idempotent; also run by the destructor.
  void Shutdown();

 private:
  /// Outcome of one attempt against one shard.
  struct Attempt {
    bool answered = false;   ///< a usable kOk response came back
    bool healthy = false;    ///< outcome the breaker records as success
    RecResponse response;
    std::string reason;      ///< failure / slowness description
    int64_t latency_micros = 0;  ///< router-observed, includes stalls
  };

  Attempt AttemptShard(int shard, const RecRequest& request);

  /// Next shard in `prefs` from `start` whose breaker admits traffic and
  /// that is not draining; advances `*cursor` past it. Returns -1 when a
  /// full scan finds none. Records skip counters. A returned shard is
  /// *reserved*: its `shard_inflight_` slot is incremented in the same
  /// critical section as the draining check, so RollingSwap's drain can
  /// never miss a request that passed the check but has not yet reached the
  /// shard's server. Every non-negative return must be paired with exactly
  /// one EndShardAttempt once the attempt completes.
  int NextCandidate(const std::vector<int>& prefs, size_t* cursor,
                    FleetResponse* out);

  /// Releases the reservation NextCandidate took on `shard`.
  void EndShardAttempt(int shard);

  /// The infallible cross-shard answer: the shards' popularity ranking
  /// (RecServer::RankPopular), which needs no live shard.
  void FleetFallback(const RecRequest& request, FleetResponse* out);

  /// True when the tenant may admit one more request this window.
  bool AdmitTenant(int64_t tenant);

  void Wait(int64_t micros);

  ShardRouterOptions options_;
  const Clock* clock_;

  std::vector<Kucnet*> models_;
  std::vector<std::unique_ptr<RecServer>> servers_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;

  /// Consistent-hash ring: (point, shard), sorted by point.
  std::vector<std::pair<uint64_t, int>> ring_;

  /// Guards stats_, tenants_, draining_, shard_inflight_, jitter_rng_.
  mutable std::mutex mu_;
  struct TenantWindow {
    int64_t window_start = 0;
    int64_t admitted = 0;
  };
  std::unordered_map<int64_t, TenantWindow> tenants_;
  std::vector<bool> draining_;
  /// Router-side attempts reserved against each shard (from NextCandidate's
  /// draining check until the attempt returns). Covers the window before the
  /// request reaches the shard server's own in-flight accounting, which is
  /// exactly the window the old queue_depth()-only drain raced with.
  std::vector<int64_t> shard_inflight_;
  Rng jitter_rng_;
  FleetStats stats_;
};

}  // namespace kucnet

#endif  // KUCNET_SERVE_FLEET_SHARD_ROUTER_H_
