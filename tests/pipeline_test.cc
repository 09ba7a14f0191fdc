#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/kucnet.h"
#include "data/synthetic.h"
#include "serve/rec_server.h"
#include "util/clock.h"
#include "util/fault.h"

/// \file
/// The staged dataflow pipeline (serve/pipeline.h) behind RecServer::Submit:
/// batched forwards must be bitwise identical to inline execution, the
/// linger window must be driven by the Clock seam (FakeClock-deterministic),
/// a deadline that expires mid-batch must degrade only its own request, and
/// a full batch queue must push back to admission instead of growing.

namespace kucnet {
namespace {

Dataset TinyDataset(uint64_t seed = 42) {
  SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.num_users = 30;
  cfg.num_items = 50;
  cfg.num_topics = 4;
  cfg.interactions_per_user = 8;
  cfg.entities_per_topic = 5;
  cfg.num_shared_entities = 6;
  cfg.kg_noise = 0.05;
  cfg.entity_entity_edges_per_topic = 5;
  Rng rng(seed);
  const RawData raw = GenerateSynthetic(cfg).raw;
  return TraditionalSplit(raw, 0.25, rng);
}

KucnetOptions SmallModelOptions(uint64_t seed = 13) {
  KucnetOptions opts;
  opts.hidden_dim = 8;
  opts.attention_dim = 3;
  opts.depth = 3;
  opts.sample_k = 8;
  opts.seed = seed;
  return opts;
}

/// Dataset + CKG + PPR + model, shared by a pipelined server under test and
/// a zero-worker reference server that defines the ground-truth response.
struct PipelineFixture {
  PipelineFixture()
      : dataset(TinyDataset()),
        ckg(dataset.BuildCkg()),
        ppr(PprTable::Compute(ckg)),
        model(&dataset, &ckg, &ppr, SmallModelOptions()) {}

  RecServerOptions Options(const Clock* clock) const {
    RecServerOptions opts;
    opts.clock = clock;
    return opts;
  }

  std::unique_ptr<RecServer> MakeServer(RecServerOptions opts) {
    return std::make_unique<RecServer>(&model, &dataset, &ckg, &ppr,
                                       std::move(opts));
  }

  Dataset dataset;
  Ckg ckg;
  PprTable ppr;
  Kucnet model;
};

RecRequest UserRequest(int64_t user, int64_t deadline_micros = 0) {
  RecRequest request;
  request.user = user;
  request.deadline_micros = deadline_micros;
  return request;
}

/// Bitwise response equality: same items, bit-identical scores.
void ExpectBitwiseItems(const std::vector<ScoredItem>& got,
                        const std::vector<ScoredItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

// ---- Determinism -------------------------------------------------------------

// The tentpole invariant: coalescing concurrent requests into one
// TryForwardMany must not change a single bit of any response, at any worker
// count or batch size. The FakeClock stays frozen, so no deadline interferes
// and the only variable is the batching schedule itself.
TEST(ServePipelineTest, BatchedPipelineMatchesServeSyncBitwise) {
  PipelineFixture fx;
  constexpr int64_t kUsers = 12;

  FakeClock ref_clock;
  RecServerOptions ref_options = fx.Options(&ref_clock);
  ref_options.num_workers = 0;
  auto reference = fx.MakeServer(ref_options);
  std::vector<RecResponse> want;
  for (int64_t user = 0; user < kUsers; ++user) {
    want.push_back(reference->ServeSync(UserRequest(user)));
    ASSERT_EQ(want.back().tier, ServeTier::kFull);
  }

  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    FakeClock clock;
    RecServerOptions options = fx.Options(&clock);
    options.num_workers = workers;
    options.batch_max_users = 4;
    options.queue_capacity = kUsers;
    auto server = fx.MakeServer(options);

    std::vector<std::future<RecResponse>> futures;
    for (int64_t user = 0; user < kUsers; ++user) {
      futures.push_back(server->Submit(UserRequest(user)));
    }
    for (int64_t user = 0; user < kUsers; ++user) {
      const RecResponse got = futures[user].get();
      ASSERT_EQ(got.status, ResponseStatus::kOk);
      ASSERT_EQ(got.tier, ServeTier::kFull);
      ExpectBitwiseItems(got.items, want[user].items);
    }
    server->Shutdown();
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.completed, kUsers);
    EXPECT_EQ(stats.batched_requests, kUsers);
    EXPECT_GT(stats.forward_batches, 0);
  }
}

// ---- Linger window -----------------------------------------------------------

// The linger window is measured on the Clock seam: with the FakeClock frozen
// a partial batch is held indefinitely, and advancing the clock past the
// window releases it — coalesced, not split.
TEST(ServePipelineTest, BatchLingerHoldsPartialBatchUntilClockAdvances) {
  PipelineFixture fx;
  FakeClock clock;
  std::vector<int64_t> batch_sizes;
  std::mutex sizes_mu;
  RecServerOptions options = fx.Options(&clock);
  options.num_workers = 2;
  options.batch_max_users = 4;
  options.batch_linger_micros = 1'000;
  options.batch_observer = [&](int64_t size) {
    std::lock_guard<std::mutex> lock(sizes_mu);
    batch_sizes.push_back(size);
  };
  auto server = fx.MakeServer(options);

  std::future<RecResponse> f0 = server->Submit(UserRequest(0));
  std::future<RecResponse> f1 = server->Submit(UserRequest(1));

  // Let both requests finish extraction and reach the batch stage (real
  // time; generous). The batch (2 of max 4) must then be *held*: the linger
  // window only moves with the FakeClock.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(f0.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  EXPECT_EQ(f1.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  {
    std::lock_guard<std::mutex> lock(sizes_mu);
    EXPECT_TRUE(batch_sizes.empty());
  }

  clock.AdvanceMicros(1'001);  // past the linger window
  EXPECT_EQ(f0.get().tier, ServeTier::kFull);
  EXPECT_EQ(f1.get().tier, ServeTier::kFull);
  server->Shutdown();

  {
    std::lock_guard<std::mutex> lock(sizes_mu);
    ASSERT_EQ(batch_sizes.size(), 1u);
    EXPECT_EQ(batch_sizes[0], 2);
  }
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.forward_batches, 1);
  EXPECT_EQ(stats.batched_requests, 2);
  EXPECT_EQ(stats.multi_user_batches, 1);
}

// ---- Per-request deadlines inside a batch ------------------------------------

// A deadline that expires after extraction but before the batched forward
// must degrade that request alone: its batchmate still gets the full tier,
// bit-identical to the synchronous answer.
TEST(ServePipelineTest, MidBatchDeadlineExpiryDegradesIndividually) {
  PipelineFixture fx;

  FakeClock ref_clock;
  RecServerOptions ref_options = fx.Options(&ref_clock);
  ref_options.num_workers = 0;
  auto reference = fx.MakeServer(ref_options);
  const RecResponse want_b = reference->ServeSync(UserRequest(8));
  ASSERT_EQ(want_b.tier, ServeTier::kFull);

  FakeClock clock;
  RecServerOptions options = fx.Options(&clock);
  options.num_workers = 2;
  options.batch_max_users = 2;      // the batch is exactly {A, B}
  options.batch_linger_micros = 1'000'000;  // frozen clock: wait for both
  // The batch is assembled, then — before the forward — time jumps past A's
  // deadline but stays well inside B's.
  options.batch_observer = [&clock](int64_t) { clock.AdvanceMicros(600); };
  auto server = fx.MakeServer(options);

  std::future<RecResponse> fa =
      server->Submit(UserRequest(7, /*deadline_micros=*/500));
  std::future<RecResponse> fb =
      server->Submit(UserRequest(8, /*deadline_micros=*/1'000'000));

  const RecResponse a = fa.get();
  const RecResponse b = fb.get();
  server->Shutdown();

  // A degraded at its own "forward" checkpoint: answered, below full, with
  // the deadline named.
  EXPECT_EQ(a.status, ResponseStatus::kOk);
  EXPECT_NE(a.tier, ServeTier::kFull);
  EXPECT_TRUE(a.degraded);
  EXPECT_FALSE(a.items.empty());
  EXPECT_NE(a.degrade_reason.find("deadline"), std::string::npos)
      << a.degrade_reason;

  // B is untouched by its batchmate's expiry.
  EXPECT_EQ(b.status, ResponseStatus::kOk);
  ASSERT_EQ(b.tier, ServeTier::kFull);
  ExpectBitwiseItems(b.items, want_b.items);

  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.deadline_missed, 1);
  EXPECT_EQ(stats.degraded, 1);
  EXPECT_EQ(stats.multi_user_batches, 1);
  EXPECT_EQ(stats.completed, 2);
}

// ---- Predictive deadline guard -----------------------------------------------

// The batch stage tracks an EWMA of recent batch-forward cost and degrades a
// request *before* the forward when its remaining deadline budget cannot
// cover it — a forward that can only finish late is never started. The
// estimate is planted exactly by stalling one forward with a FakeClock
// advance, and the decay (a whole-batch preemption loses a quarter of the
// estimate, so a one-off slow batch cannot latch the full tier shut) is
// walked step by deterministic step.
TEST(ServePipelineTest, PredictiveDeadlineGuardPreemptsDoomedForwards) {
  PipelineFixture fx;
  FakeClock clock;
  FaultInjector faults;
  RecServerOptions options = fx.Options(&clock);
  options.num_workers = 1;
  options.batch_max_users = 1;
  options.default_deadline_micros = 1'000'000;
  options.fault = &faults;
  auto server = fx.MakeServer(options);

  // Plant the estimate: the first forward "takes" 50'000us on the Clock
  // seam (the stall advances the FakeClock mid-forward), so the EWMA — a
  // first sample — becomes exactly 50'000.
  faults.ArmStall("forward", 1, [&clock] { clock.AdvanceMicros(50'000); });
  const RecResponse slow = server->Submit(UserRequest(0)).get();
  ASSERT_EQ(slow.status, ResponseStatus::kOk);
  ASSERT_EQ(slow.tier, ServeTier::kFull);  // 50'000 < its 1s budget

  // Requests with a 10'000us budget are doomed while the estimate exceeds
  // it: each is preempted (answered promptly below full, reason named) and
  // each whole-batch preemption decays the estimate by a quarter —
  // 50'000 -> 37'500 -> 28'125 -> 21'094 -> 15'821 -> 11'866 -> 8'900 —
  // so exactly six preempt before the estimate drops under the budget.
  for (int i = 1; i <= 6; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const RecResponse got =
        server->Submit(UserRequest(i, /*deadline_micros=*/10'000)).get();
    EXPECT_EQ(got.status, ResponseStatus::kOk);
    EXPECT_NE(got.tier, ServeTier::kFull);
    EXPECT_TRUE(got.degraded);
    EXPECT_FALSE(got.items.empty());
    EXPECT_NE(got.degrade_reason.find("predicted batch forward"),
              std::string::npos)
        << got.degrade_reason;
  }

  // The seventh identical request finds the decayed estimate (8'900) under
  // its budget and gets the full tier again: the guard self-heals.
  const RecResponse recovered =
      server->Submit(UserRequest(7, /*deadline_micros=*/10'000)).get();
  EXPECT_EQ(recovered.status, ResponseStatus::kOk);
  EXPECT_EQ(recovered.tier, ServeTier::kFull);
  server->Shutdown();

  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.completed, 8);
  EXPECT_EQ(stats.deadline_preempted, 6);
  EXPECT_EQ(stats.deadline_missed, 6);  // preemption counts as deadline-driven
  EXPECT_EQ(stats.forward_batches, 2);  // the stalled one and the recovery
  EXPECT_EQ(stats.fault_events, 0);     // a stall is a delay, not a fault
}

// ---- Back-pressure -----------------------------------------------------------

// When the batch stage stops consuming, the bounded ready queue fills, the
// extraction workers block, the admission queue fills behind them, and the
// next Submit sheds kOverloaded immediately — bounded memory end to end, no
// silent unbounded queue between stages.
TEST(ServePipelineTest, FullBatchQueuePushesBackToAdmissionShed) {
  PipelineFixture fx;
  FakeClock clock;
  std::promise<void> first_batch_entered;
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<bool> blocked_once{false};
  RecServerOptions options = fx.Options(&clock);
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.batch_max_users = 1;  // the ready queue holds 2 x 1 jobs
  options.batch_observer = [&](int64_t) {
    if (!blocked_once.exchange(true)) {
      first_batch_entered.set_value();
      release.wait();  // wedge the batch stage on its first batch
    }
  };
  auto server = fx.MakeServer(options);

  // Job 1 flows to the batch stage and wedges it.
  std::vector<std::future<RecResponse>> futures;
  futures.push_back(server->Submit(UserRequest(0)));
  first_batch_entered.get_future().wait();

  // Jobs 2-3 land in the ready queue (capacity 2); job 4 blocks the
  // extraction worker trying to push behind them. Feed them one at a time,
  // waiting for the worker to pop each, so the admission queue is verifiably
  // empty when jobs 5-6 fill it.
  const auto wait_popped = [&](int64_t want_in_flight) {
    while (server->queue_depth() > 0 ||
           server->in_flight() < want_in_flight) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  futures.push_back(server->Submit(UserRequest(1)));
  wait_popped(2);
  futures.push_back(server->Submit(UserRequest(2)));
  wait_popped(3);
  futures.push_back(server->Submit(UserRequest(3)));
  wait_popped(4);
  futures.push_back(server->Submit(UserRequest(4)));
  futures.push_back(server->Submit(UserRequest(5)));
  ASSERT_EQ(server->queue_depth(), 2);
  ASSERT_EQ(server->in_flight(), 4);

  // The 7th request finds the admission queue full: shed, instantly.
  std::future<RecResponse> shed = server->Submit(UserRequest(6));
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(shed.get().status, ResponseStatus::kOverloaded);

  release_promise.set_value();
  for (auto& f : futures) {
    const RecResponse got = f.get();
    EXPECT_EQ(got.status, ResponseStatus::kOk);
    EXPECT_EQ(got.tier, ServeTier::kFull);
  }
  server->Shutdown();

  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.submitted, 7);
  EXPECT_EQ(stats.admitted, 6);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.completed, 6);
}

// ---- Shutdown ----------------------------------------------------------------

// Shutdown with requests at every stage — queued, extracting, lingering in a
// partial batch — must answer all of them, then refuse new work.
TEST(ServePipelineTest, ShutdownDrainsLingeringBatch) {
  PipelineFixture fx;
  FakeClock clock;
  RecServerOptions options = fx.Options(&clock);
  options.num_workers = 2;
  options.batch_max_users = 8;
  options.batch_linger_micros = 1'000'000;  // frozen clock: linger never ends
  auto server = fx.MakeServer(options);

  std::vector<std::future<RecResponse>> futures;
  for (int64_t user = 0; user < 5; ++user) {
    futures.push_back(server->Submit(UserRequest(user)));
  }
  server->Shutdown();  // must flush the lingering partial batch

  for (auto& f : futures) {
    const RecResponse got = f.get();
    EXPECT_EQ(got.status, ResponseStatus::kOk);
    EXPECT_EQ(got.tier, ServeTier::kFull);
  }
  EXPECT_EQ(server->stats().completed, 5);
  EXPECT_TRUE(server->Quiesced());
  EXPECT_EQ(server->Submit(UserRequest(9)).get().status,
            ResponseStatus::kShutdown);
}

}  // namespace
}  // namespace kucnet
