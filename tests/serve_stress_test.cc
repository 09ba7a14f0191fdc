#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/kucnet.h"
#include "data/synthetic.h"
#include "serve/fleet/shard_router.h"
#include "serve/rec_server.h"
#include "tensor/serialize.h"
#include "util/rng.h"

/// \file
/// Real-clock stress of serving, on top of the scripted FakeClock suites:
/// client threads issue random interleavings of every server entry point
/// (and, for the fleet, rolling swaps) while nothing is scripted, so the
/// schedules TSan sees are the ones real traffic makes. Every request must
/// resolve within a bound, every kOk answer must be a valid ranking, the
/// server must be quiescent after Shutdown, and the counts the clients keep
/// must reconcile with the server's own stats.

namespace kucnet {
namespace {

/// Generous: a TSan build on a loaded machine answers in milliseconds.
constexpr auto kResolveBound = std::chrono::seconds(20);

Dataset TinyDataset() {
  SyntheticConfig cfg;
  cfg.seed = 42;
  cfg.num_users = 30;
  cfg.num_items = 50;
  cfg.num_topics = 4;
  cfg.interactions_per_user = 8;
  cfg.entities_per_topic = 5;
  cfg.num_shared_entities = 6;
  cfg.kg_noise = 0.05;
  cfg.entity_entity_edges_per_topic = 5;
  Rng rng(42);
  return TraditionalSplit(GenerateSynthetic(cfg).raw, 0.25, rng);
}

KucnetOptions SmallModelOptions(uint64_t seed = 13) {
  KucnetOptions opts;
  opts.hidden_dim = 8;
  opts.attention_dim = 3;
  opts.depth = 2;
  opts.sample_k = 8;
  opts.seed = seed;
  return opts;
}

struct Corpus {
  Corpus() : dataset(TinyDataset()), ckg(dataset.BuildCkg()) {
    ppr = PprTable::Compute(ckg);
  }
  Dataset dataset;
  Ckg ckg;
  PprTable ppr;
};

/// Mostly valid users, sometimes one outside [0, num_users).
int64_t RandomUser(Rng& rng, int64_t num_users) {
  if (rng.Bernoulli(0.05)) return rng.Bernoulli(0.5) ? -1 : num_users;
  return rng.UniformInt(num_users);
}

/// Non-empty, every item in range, best first in the servers' strict total
/// order (score descending, ties by ascending id), which also rules out a
/// repeated item.
void ExpectValidRanking(const RecResponse& response, int64_t num_items) {
  ASSERT_FALSE(response.items.empty());
  for (size_t k = 0; k < response.items.size(); ++k) {
    const ScoredItem& item = response.items[k];
    ASSERT_GE(item.item, 0);
    ASSERT_LT(item.item, num_items);
    if (k == 0) continue;
    const ScoredItem& prev = response.items[k - 1];
    ASSERT_TRUE(prev.score > item.score ||
                (prev.score == item.score && prev.item < item.item))
        << "rank " << k << ": (" << prev.item << ", " << prev.score
        << ") before (" << item.item << ", " << item.score << ")";
  }
}

/// Per-client tallies of what the server answered.
struct Tally {
  int64_t calls = 0;  ///< Submit + ServeSync
  int64_t ok = 0;
  int64_t overloaded = 0;
  int64_t shutdown = 0;

  void Add(const Tally& other) {
    calls += other.calls;
    ok += other.ok;
    overloaded += other.overloaded;
    shutdown += other.shutdown;
  }
};

void Record(const RecResponse& response, int64_t num_items, Tally* tally) {
  switch (response.status) {
    case ResponseStatus::kOk:
      ++tally->ok;
      ExpectValidRanking(response, num_items);
      break;
    case ResponseStatus::kOverloaded:
      ++tally->overloaded;
      break;
    case ResponseStatus::kShutdown:
      ++tally->shutdown;
      break;
  }
}

TEST(ServeStressTest, RandomInterleavingsAgainstOneServer) {
  Corpus corpus;
  const Kucnet model(&corpus.dataset, &corpus.ckg, &corpus.ppr,
                     SmallModelOptions());
  const int64_t num_users = corpus.dataset.num_users;
  const int64_t num_items = corpus.dataset.num_items;
  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 40;

  uint64_t seed = 1;
  for (const int workers : {0, 1, 2}) {
    for (const int64_t batch : {int64_t{1}, int64_t{4}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " batch_max_users=" + std::to_string(batch));
      RecServerOptions options;
      options.num_workers = workers;
      options.batch_max_users = batch;
      options.queue_capacity = 8;  // small enough to shed under the burst
      options.default_deadline_micros = 20'000;
      RecServer server(&model, &corpus.dataset, &corpus.ckg, &corpus.ppr,
                       options);

      // Shutdown races the clients once a random share of their operations
      // (between a half and all of them) has been issued.
      Rng shutdown_rng(seed * 7919);
      const int shutdown_at =
          kClients * kOpsPerClient / 2 +
          static_cast<int>(shutdown_rng.UniformInt(kClients * kOpsPerClient / 2));
      std::atomic<int> ops_issued{0};
      std::vector<Tally> tallies(kClients);
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c, client_seed = seed * 31 + c] {
          Rng rng(client_seed);
          Tally& tally = tallies[c];
          std::deque<std::future<RecResponse>> pending;
          const auto resolve_oldest = [&] {
            std::future<RecResponse> future = std::move(pending.front());
            pending.pop_front();
            ASSERT_EQ(future.wait_for(kResolveBound),
                      std::future_status::ready)
                << "a submitted request never resolved";
            Record(future.get(), num_items, &tally);
          };
          for (int op = 0; op < kOpsPerClient; ++op) {
            ops_issued.fetch_add(1, std::memory_order_relaxed);
            const int64_t kind = rng.UniformInt(10);
            if (kind < 5) {
              ++tally.calls;
              pending.push_back(server.Submit({RandomUser(rng, num_users)}));
            } else if (kind < 7) {
              ++tally.calls;
              Record(server.ServeSync({RandomUser(rng, num_users)}), num_items,
                     &tally);
            } else if (kind < 8) {
              server.InvalidateUsers(
                  {rng.UniformInt(num_users), rng.UniformInt(num_users)});
            } else if (kind < 9) {
              server.InvalidateCache();
            } else if (!pending.empty()) {
              resolve_oldest();
            }
          }
          while (!pending.empty()) resolve_oldest();
        });
      }
      threads.emplace_back([&] {
        while (ops_issued.load(std::memory_order_relaxed) < shutdown_at) {
          std::this_thread::yield();
        }
        server.Shutdown();
      });
      for (std::thread& t : threads) t.join();
      server.Shutdown();
      EXPECT_TRUE(server.Quiesced());
      EXPECT_EQ(server.queue_depth(), 0);
      EXPECT_EQ(server.in_flight(), 0);

      Tally total;
      for (const Tally& t : tallies) total.Add(t);
      const ServerStats stats = server.stats();
      EXPECT_EQ(stats.submitted, total.calls);
      EXPECT_EQ(stats.admitted, total.ok);
      EXPECT_EQ(stats.completed, stats.admitted);
      EXPECT_EQ(stats.shed, total.overloaded);
      EXPECT_EQ(stats.submitted - stats.admitted - stats.shed,
                total.shutdown);
      int64_t tier_sum = 0;
      for (const int64_t n : stats.tier_count) tier_sum += n;
      EXPECT_EQ(tier_sum, stats.completed);
      ++seed;
    }
  }
}

TEST(ServeStressTest, RandomInterleavingsAgainstAFleet) {
  Corpus corpus;
  constexpr int kShards = 3;
  std::vector<std::unique_ptr<Kucnet>> models;
  std::vector<Kucnet*> raw;
  for (int s = 0; s < kShards; ++s) {
    models.push_back(std::make_unique<Kucnet>(&corpus.dataset, &corpus.ckg,
                                              &corpus.ppr,
                                              SmallModelOptions()));
    raw.push_back(models.back().get());
  }
  Kucnet next(&corpus.dataset, &corpus.ckg, &corpus.ppr,
              SmallModelOptions(/*seed=*/77));
  const std::string checkpoint = ::testing::TempDir() + "/stress_swap.ckpt";
  ASSERT_TRUE(TrySaveParameters(next.Params(), checkpoint).ok());

  ShardRouterOptions options;
  options.server.num_workers = 1;
  options.server.batch_max_users = 2;
  options.server.queue_capacity = 4;
  options.retry_backoff_micros = 50;
  options.retry_jitter_micros = 16;
  options.hedging = true;
  options.hedge_latency_micros = 5'000;
  ShardRouter router(raw, &corpus.dataset, &corpus.ckg, &corpus.ppr,
                     options);
  const int64_t num_users = corpus.dataset.num_users;
  const int64_t num_items = corpus.dataset.num_items;

  constexpr int kClients = 3;
  constexpr int kRoutesPerClient = 40;
  std::vector<int64_t> answered(kClients, 0);
  std::atomic<int> swaps{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(100 + c);
      for (int k = 0; k < kRoutesPerClient; ++k) {
        FleetRequest request;
        request.request.user = RandomUser(rng, num_users);
        const auto t0 = std::chrono::steady_clock::now();
        const FleetResponse got = router.Route(request);
        const bool in_time =
            std::chrono::steady_clock::now() - t0 < kResolveBound;
        ASSERT_TRUE(in_time) << "a routed request took over the bound";
        // Quotas are off: the fleet answers every request.
        ASSERT_EQ(got.response.status, ResponseStatus::kOk);
        ExpectValidRanking(got.response, num_items);
        ++answered[c];
        if (rng.Bernoulli(0.2)) {
          router.InvalidateUsers({rng.UniformInt(num_users)});
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int s = 0; s < 2; ++s) {
      const Status status = router.RollingSwap(checkpoint);
      EXPECT_TRUE(status.ok()) << status.message();
      if (status.ok()) ++swaps;
    }
  });
  for (std::thread& t : threads) t.join();
  router.Shutdown();

  int64_t total = 0;
  for (const int64_t n : answered) total += n;
  const FleetStats stats = router.stats();
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.answered, total);
  EXPECT_EQ(stats.swaps, swaps.load() * kShards);
  for (int s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_TRUE(router.shard(s).Quiesced());
    const ServerStats shard = router.shard(s).stats();
    EXPECT_EQ(shard.completed, shard.admitted);
    EXPECT_EQ(shard.submitted, shard.admitted + shard.shed);
  }
  EXPECT_EQ(stats.shards.submitted, stats.attempts);
}

}  // namespace
}  // namespace kucnet
