// The computation-graph builder keeps one dense node-slot array per thread
// (sized to the largest graph that thread has built on, reset through each
// layer's node list). These tests pin the cases a stale slot would break:
// a thread moving between graphs of different sizes, a thread building
// after a cancelled build, and many threads building at once. Every graph
// must equal testing::OracleUserCompGraph, the hash-map expansion. Labelled
// `threads`, so CI's TSan job runs it.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/compgraph.h"
#include "ppr/ppr.h"
#include "testing/oracle.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace kucnet {
namespace {

struct Fixture {
  Fixture(int64_t num_users, int64_t num_items, uint64_t seed) {
    SyntheticConfig cfg;
    cfg.seed = seed;
    cfg.num_users = num_users;
    cfg.num_items = num_items;
    cfg.num_topics = 4;
    cfg.interactions_per_user = 6;
    cfg.entities_per_topic = 6;
    cfg.num_shared_entities = 6;
    Rng rng(seed);
    dataset = TraditionalSplit(GenerateSynthetic(cfg).raw, 0.2, rng);
    ckg = std::make_unique<Ckg>(dataset.BuildCkg());
    ppr = std::make_unique<PprTable>(PprTable::Compute(*ckg));
  }

  CompGraphOptions Options(PruneMode prune) const {
    CompGraphOptions opts;
    opts.depth = 3;
    opts.max_edges_per_node = 5;
    opts.prune = prune;
    return opts;
  }

  /// TryBuild of `user` into `*out` on the calling thread, with Rng(seed)
  /// under kRandom.
  Status Build(int64_t user, PruneMode prune, uint64_t seed,
               UserCompGraph* out,
               const ExecContext& ctx = ExecContext()) const {
    const CompGraphBuilder builder(ckg.get(), Options(prune));
    const NodeScoreFn score = ppr->ScoreFn(user);
    Rng rng(seed);
    return builder.TryBuild(ckg->UserNode(user),
                            prune == PruneMode::kPpr ? &score : nullptr, &rng,
                            {}, ctx, out);
  }

  /// The difference between Build and the oracle for `user`; empty if none.
  std::string DifferenceFromOracle(int64_t user, PruneMode prune,
                                   uint64_t seed) const {
    UserCompGraph got;
    const Status status = Build(user, prune, seed, &got);
    if (!status.ok()) return status.message();
    return testing::UserCompGraphDifference(got, Oracle(user, prune, seed));
  }

  UserCompGraph Oracle(int64_t user, PruneMode prune, uint64_t seed) const {
    const NodeScoreFn score = ppr->ScoreFn(user);
    Rng rng(seed);
    return testing::OracleUserCompGraph(
        *ckg, Options(prune), ckg->UserNode(user),
        prune == PruneMode::kPpr ? &score : nullptr, &rng, {});
  }

  Dataset dataset;
  std::unique_ptr<Ckg> ckg;
  std::unique_ptr<PprTable> ppr;
};

TEST(CompGraphScratchTest, LargerSmallerLargerOnOneThread) {
  const Fixture large(120, 200, 41);
  const Fixture small(12, 20, 43);
  ASSERT_GT(large.ckg->num_nodes(), small.ckg->num_nodes());
  // A fresh thread, so the first build sizes its scratch from nothing.
  std::thread([&] {
    for (const PruneMode prune : {PruneMode::kPpr, PruneMode::kNone}) {
      for (const Fixture* f : {&large, &small, &large}) {
        for (int64_t user = 0; user < f->dataset.num_users; user += 7) {
          EXPECT_EQ(f->DifferenceFromOracle(user, prune, 0), "")
              << "nodes=" << f->ckg->num_nodes() << " user=" << user;
        }
      }
    }
  }).join();
}

TEST(CompGraphScratchTest, BuildAfterCancelledBuild) {
  const Fixture f(60, 90, 47);
  std::thread([&] {
    for (int64_t user = 0; user < 12; ++user) {
      // Cancel at every other head node of the full build, then build the
      // same user and a neighbour uncancelled on the same thread.
      const UserCompGraph full = f.Oracle(user, PruneMode::kPpr, 0);
      int64_t hits = 1;
      for (size_t l = 0; l + 1 < full.layers.size(); ++l) {
        hits += static_cast<int64_t>(full.layers[l].nodes.size());
      }
      for (int64_t fire_at = 1; fire_at <= hits; fire_at += 2) {
        FaultInjector injector;
        injector.Arm("subgraph", fire_at);
        UserCompGraph cancelled;
        ASSERT_FALSE(f.Build(user, PruneMode::kPpr, 0, &cancelled,
                             ExecContext(Deadline::Infinite(), &injector))
                         .ok())
            << "user " << user << " hit " << fire_at;
        EXPECT_TRUE(cancelled.layers.empty());
        for (const int64_t next : {user, (user + 1) % 60}) {
          EXPECT_EQ(f.DifferenceFromOracle(next, PruneMode::kPpr, 0), "")
              << "user " << next << " after a cancel at hit " << fire_at
              << " of user " << user;
        }
      }
    }
  }).join();
}

TEST(CompGraphScratchTest, ConcurrentExtractionEqualsSerial) {
  const Fixture f(150, 240, 53);
  const int64_t users = f.dataset.num_users;
  for (const PruneMode prune :
       {PruneMode::kPpr, PruneMode::kRandom, PruneMode::kNone}) {
    std::vector<UserCompGraph> serial(users);
    for (int64_t u = 0; u < users; ++u) {
      ASSERT_TRUE(f.Build(u, prune, 1000 + u, &serial[u]).ok());
    }
    SetOversubscribeForTest(true);
    SetGlobalPoolThreads(4);
    std::vector<UserCompGraph> pooled(users);
    std::vector<Status> statuses(users);
    ParallelFor(users, [&](int64_t u) {
      statuses[u] = f.Build(u, prune, 1000 + u, &pooled[u]);
    });
    SetGlobalPoolThreads(1);
    ClearOversubscribeForTest();
    for (int64_t u = 0; u < users; ++u) {
      ASSERT_TRUE(statuses[u].ok()) << statuses[u].message();
      EXPECT_EQ(testing::UserCompGraphDifference(pooled[u], serial[u]), "")
          << "user " << u;
    }
    const int64_t last = users - 1;
    EXPECT_EQ(testing::UserCompGraphDifference(
                  serial[last], f.Oracle(last, prune, 1000 + last)),
              "");
  }
}

}  // namespace
}  // namespace kucnet
