#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "ppr/dynamic_ppr.h"
#include "ppr/ppr.h"
#include "stream/streaming_ckg.h"
#include "stream/update_log.h"
#include "testing/oracle.h"
#include "util/clock.h"
#include "util/fs.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// Crash-consistency and incremental-repair coverage for the streaming CKG:
// WAL round trips, segment rotation, torn-tail recovery, the exactness of
// local PPR repair against the recompute oracle, the repair's speed against
// a full recompute, and the kill-at-every-op sweep asserting recovery is
// byte-identical (StateDigest) to an uninterrupted stream at every crash
// point.

namespace kucnet {
namespace {

Dataset TinyDataset() {
  Dataset d;
  d.name = "stream-tiny";
  d.num_users = 4;
  d.num_items = 3;
  d.num_kg_nodes = 5;
  d.num_kg_relations = 2;
  // User 3 has no interactions: a dangling user node exercising the
  // absorbed-mass reversal when its first edge streams in.
  d.train = {{0, 0}, {0, 1}, {1, 0}, {2, 2}};
  d.kg = {{0, 0, 3}, {1, 1, 4}, {3, 0, 4}};
  return d;
}

StreamingCkgOptions SmallSegments() {
  StreamingCkgOptions options;
  options.wal.segment_records = 4;
  return options;
}

// A fixed update script: interactions and KG triplets, including a
// duplicate (index 3 repeats index 0) and dangling user 3's first edge.
std::vector<GraphUpdate> UpdateScript() {
  return {
      GraphUpdate::Interaction(0, 1, 1),
      GraphUpdate::Interaction(0, 3, 0),  // dangling user's first edge
      GraphUpdate::KgTriplet(0, 2, 1, 4),
      GraphUpdate::Interaction(0, 1, 1),  // duplicate of the first
      GraphUpdate::KgTriplet(0, 0, 0, 2),
      GraphUpdate::Interaction(0, 2, 0),
      GraphUpdate::Interaction(0, 0, 2),
      GraphUpdate::KgTriplet(0, 4, 0, 3),
      GraphUpdate::Interaction(0, 3, 1),
      GraphUpdate::KgTriplet(0, 2, 1, 4),  // duplicate triplet
      GraphUpdate::Interaction(0, 1, 2),
      GraphUpdate::Interaction(0, 2, 1),
  };
}

Status ApplyUpdate(StreamingCkg& ckg, const GraphUpdate& update) {
  if (update.type == UpdateType::kInteraction) {
    return ckg.AppendInteraction(update.a, update.b);
  }
  return ckg.AppendKgTriplet(update.a, update.b, update.c);
}

bool HasEntry(const FlatPprVector& vec, int64_t node) {
  return std::binary_search(
      vec.begin(), vec.end(), PprEntry{node, 0.0},
      [](const PprEntry& a, const PprEntry& b) { return a.node < b.node; });
}

// Same nodes and the same raw value bits, entry for entry.
bool SameBytes(const FlatPprVector& a, const FlatPprVector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node ||
        std::bit_cast<uint64_t>(a[i].value) !=
            std::bit_cast<uint64_t>(b[i].value)) {
      return false;
    }
  }
  return true;
}

// Per-node agreement between the incremental estimate and the recompute
// oracle, within the residual-mass bound, plus mass conservation of the
// incremental state.
void ExpectMatchesRecomputeOracle(const StreamingCkg& ckg) {
  const DynamicCkg& graph = ckg.graph();
  const DynamicPprTable& ppr = ckg.ppr();
  for (int64_t u = 0; u < graph.num_users(); ++u) {
    const testing::OraclePprResult fresh = testing::OracleStreamRecompute(
        graph, u, ppr.alpha(), ppr.epsilon());
    real_t fresh_residual = 0.0;
    for (const auto& [node, r] : fresh.residual) {
      fresh_residual += std::abs(r);
    }
    const real_t bound = ppr.ResidualMass(u) + fresh_residual + 1e-12;

    const FlatPprVector incremental = ppr.Estimate(u);
    for (const auto& [node, value] : incremental) {
      const auto it = fresh.estimate.find(node);
      const real_t reference = it == fresh.estimate.end() ? 0.0 : it->second;
      EXPECT_NEAR(value, reference, bound)
          << "user " << u << " node " << node;
    }
    for (const auto& [node, reference] : fresh.estimate) {
      if (HasEntry(incremental, node)) continue;  // compared above
      EXPECT_NEAR(0.0, reference, bound) << "user " << u << " node " << node;
    }

    // Mass conservation: estimate + residual must still sum to 1.
    real_t mass = 0.0;
    for (const auto& [node, value] : incremental) mass += value;
    for (const auto& [node, r] : ppr.Residual(u)) mass += r;
    EXPECT_NEAR(mass, 1.0, 1e-9) << "user " << u;
  }
}

TEST(GraphUpdateLogTest, RoundTripsRecordsAcrossReopen) {
  InMemoryFileSystem fs;
  std::vector<GraphUpdate> written;
  {
    GraphUpdateLog log(&fs, "wal");
    std::vector<GraphUpdate> recovered;
    ASSERT_TRUE(log.Open(&recovered).ok());
    EXPECT_TRUE(recovered.empty());
    for (uint64_t k = 0; k < 7; ++k) {
      GraphUpdate update =
          k % 2 == 0 ? GraphUpdate::Interaction(log.next_seq(), k, k + 1)
                     : GraphUpdate::KgTriplet(log.next_seq(), k, 0, k + 2);
      ASSERT_TRUE(log.Append(update).ok());
      written.push_back(update);
    }
  }
  GraphUpdateLog reopened(&fs, "wal");
  std::vector<GraphUpdate> recovered;
  ASSERT_TRUE(reopened.Open(&recovered).ok());
  EXPECT_EQ(recovered, written);
  EXPECT_EQ(reopened.next_seq(), 7u);
  EXPECT_EQ(reopened.torn_tails_recovered(), 0);
}

TEST(GraphUpdateLogTest, RotatesAndSealsSegments) {
  InMemoryFileSystem fs;
  GraphUpdateLog::Options options;
  options.segment_records = 3;
  GraphUpdateLog log(&fs, "wal", options);
  std::vector<GraphUpdate> recovered;
  ASSERT_TRUE(log.Open(&recovered).ok());
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(log.Append(GraphUpdate::Interaction(k, 0, 0)).ok());
  }
  // 8 records at 3 per segment: two sealed, the third open with 2 records.
  EXPECT_TRUE(fs.Exists("wal/wal_000000.log"));
  EXPECT_TRUE(fs.Exists("wal/wal_000001.log"));
  EXPECT_TRUE(fs.Exists("wal/wal_000002.open"));
  EXPECT_EQ(log.segments_sealed(), 2);

  GraphUpdateLog reopened(&fs, "wal");
  recovered.clear();
  ASSERT_TRUE(reopened.Open(&recovered).ok());
  EXPECT_EQ(recovered.size(), 8u);
  EXPECT_EQ(reopened.next_seq(), 8u);
}

TEST(GraphUpdateLogTest, TruncatesTornTailOfOpenSegment) {
  InMemoryFileSystem fs;
  {
    GraphUpdateLog log(&fs, "wal");
    std::vector<GraphUpdate> recovered;
    ASSERT_TRUE(log.Open(&recovered).ok());
    for (uint64_t k = 0; k < 3; ++k) {
      ASSERT_TRUE(log.Append(GraphUpdate::Interaction(k, 7, 7)).ok());
    }
  }
  // Simulate a non-atomic writer dying mid-append: valid prefix + garbage.
  std::string image;
  ASSERT_TRUE(fs.ReadFile("wal/wal_000000.open", &image).ok());
  ASSERT_TRUE(
      fs.WriteFile("wal/wal_000000.open", image + "torn-garbage").ok());

  GraphUpdateLog reopened(&fs, "wal");
  std::vector<GraphUpdate> recovered;
  ASSERT_TRUE(reopened.Open(&recovered).ok());
  EXPECT_EQ(recovered.size(), 3u);
  EXPECT_EQ(reopened.torn_tails_recovered(), 1);
  // The log keeps accepting appends after truncation.
  ASSERT_TRUE(reopened.Append(GraphUpdate::Interaction(3, 1, 1)).ok());
}

TEST(GraphUpdateLogTest, RejectsCorruptionInSealedSegment) {
  InMemoryFileSystem fs;
  {
    GraphUpdateLog::Options options;
    options.segment_records = 2;
    GraphUpdateLog log(&fs, "wal", options);
    std::vector<GraphUpdate> recovered;
    ASSERT_TRUE(log.Open(&recovered).ok());
    for (uint64_t k = 0; k < 5; ++k) {
      ASSERT_TRUE(log.Append(GraphUpdate::Interaction(k, 1, 2)).ok());
    }
  }
  std::string image;
  ASSERT_TRUE(fs.ReadFile("wal/wal_000000.log", &image).ok());
  image[image.size() / 2] ^= 0x40;  // bit flip mid-record
  ASSERT_TRUE(fs.WriteFile("wal/wal_000000.log", image).ok());

  GraphUpdateLog reopened(&fs, "wal");
  std::vector<GraphUpdate> recovered;
  EXPECT_FALSE(reopened.Open(&recovered).ok());
}

TEST(GraphUpdateLogTest, RemovesStrayTempFiles) {
  InMemoryFileSystem fs;
  ASSERT_TRUE(fs.WriteFile("wal/wal_000000.open.tmp", "half-written").ok());
  GraphUpdateLog log(&fs, "wal");
  std::vector<GraphUpdate> recovered;
  ASSERT_TRUE(log.Open(&recovered).ok());
  EXPECT_FALSE(fs.Exists("wal/wal_000000.open.tmp"));
}

// ---- Group commit ------------------------------------------------------------

GraphUpdate ScriptRecord(uint64_t seq) {
  return seq % 2 == 0 ? GraphUpdate::Interaction(seq, seq % 3, seq % 2)
                      : GraphUpdate::KgTriplet(seq, seq % 4, 0, (seq + 1) % 4);
}

TEST(GraphUpdateLogTest, GroupCommitBuffersUntilTheBatchBoundary) {
  InMemoryFileSystem fs;
  GraphUpdateLog::Options options;
  options.group_size = 3;
  GraphUpdateLog log(&fs, "wal", options);
  std::vector<GraphUpdate> recovered;
  ASSERT_TRUE(log.Open(&recovered).ok());

  ASSERT_TRUE(log.Append(ScriptRecord(0)).ok());
  ASSERT_TRUE(log.Append(ScriptRecord(1)).ok());
  EXPECT_EQ(log.pending_records(), 2);
  {
    // A buffered-but-unflushed record is NOT durable: a reopen of the same
    // directory sees only the flushed prefix (here: nothing).
    GraphUpdateLog peek(&fs, "wal");
    std::vector<GraphUpdate> durable;
    ASSERT_TRUE(peek.Open(&durable).ok());
    EXPECT_TRUE(durable.empty());
  }

  // The third append reaches group_size: the whole batch becomes durable.
  ASSERT_TRUE(log.Append(ScriptRecord(2)).ok());
  EXPECT_EQ(log.pending_records(), 0);
  GraphUpdateLog reopened(&fs, "wal");
  std::vector<GraphUpdate> all;
  ASSERT_TRUE(reopened.Open(&all).ok());
  ASSERT_EQ(all.size(), 3u);
  for (uint64_t k = 0; k < 3; ++k) EXPECT_EQ(all[k], ScriptRecord(k));
}

TEST(GraphUpdateLogTest, ExplicitFlushMakesTheBufferedBatchDurable) {
  InMemoryFileSystem fs;
  GraphUpdateLog::Options options;
  options.group_size = 100;
  GraphUpdateLog log(&fs, "wal", options);
  std::vector<GraphUpdate> recovered;
  ASSERT_TRUE(log.Open(&recovered).ok());
  ASSERT_TRUE(log.Flush().ok());  // no-op with nothing pending

  for (uint64_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(log.Append(ScriptRecord(k)).ok());
  }
  EXPECT_EQ(log.pending_records(), 5);
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_EQ(log.pending_records(), 0);

  GraphUpdateLog reopened(&fs, "wal");
  std::vector<GraphUpdate> all;
  ASSERT_TRUE(reopened.Open(&all).ok());
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(reopened.next_seq(), 5u);
}

TEST(GraphUpdateLogTest, SegmentIsNeverSealedWithUnflushedRecords) {
  InMemoryFileSystem fs;
  GraphUpdateLog::Options options;
  options.segment_records = 3;
  options.group_size = 2;
  GraphUpdateLog log(&fs, "wal", options);
  std::vector<GraphUpdate> recovered;
  ASSERT_TRUE(log.Open(&recovered).ok());

  // Appends 0,1 flush at the group boundary; append 2 stays pending; append
  // 3 hits the full segment, which flushes record 2 *before* the seal.
  for (uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(log.Append(ScriptRecord(k)).ok());
  }
  EXPECT_EQ(log.segments_sealed(), 1);
  EXPECT_EQ(log.pending_records(), 1);  // record 3, in the new segment
  ASSERT_TRUE(log.Flush().ok());

  GraphUpdateLog reopened(&fs, "wal");
  std::vector<GraphUpdate> all;
  ASSERT_TRUE(reopened.Open(&all).ok());
  ASSERT_EQ(all.size(), 4u);
  for (uint64_t k = 0; k < 4; ++k) EXPECT_EQ(all[k], ScriptRecord(k));
}

TEST(GraphUpdateLogTest, FailedFlushRollsBackToTheDurablePrefix) {
  InMemoryFileSystem mem;
  FaultInjectingFileSystem fs(&mem);
  GraphUpdateLog::Options options;
  options.group_size = 4;
  GraphUpdateLog log(&fs, "wal", options);
  std::vector<GraphUpdate> recovered;
  ASSERT_TRUE(log.Open(&recovered).ok());

  ASSERT_TRUE(log.Append(ScriptRecord(0)).ok());
  ASSERT_TRUE(log.Append(ScriptRecord(1)).ok());
  ASSERT_TRUE(log.Append(ScriptRecord(2)).ok());
  ASSERT_TRUE(log.Flush().ok());  // seq 0..2 durable

  ASSERT_TRUE(log.Append(ScriptRecord(3)).ok());
  ASSERT_TRUE(log.Append(ScriptRecord(4)).ok());
  fs.FailFrom(1, FaultMode::kFailCleanly);
  EXPECT_FALSE(log.Flush().ok());
  fs.Disarm();
  // The batch was discarded and the sequence rolled back: the caller
  // re-appends from the durable prefix.
  EXPECT_EQ(log.pending_records(), 0);
  EXPECT_EQ(log.next_seq(), 3u);
  ASSERT_TRUE(log.Append(ScriptRecord(3)).ok());
  ASSERT_TRUE(log.Append(ScriptRecord(4)).ok());
  ASSERT_TRUE(log.Flush().ok());

  GraphUpdateLog reopened(&fs, "wal");
  std::vector<GraphUpdate> all;
  ASSERT_TRUE(reopened.Open(&all).ok());
  ASSERT_EQ(all.size(), 5u);
  for (uint64_t k = 0; k < 5; ++k) EXPECT_EQ(all[k], ScriptRecord(k));
}

TEST(GraphUpdateLogTest, GroupedKillAtEveryOpSweepStaysRecoverable) {
  constexpr uint64_t kRecords = 10;
  GraphUpdateLog::Options options;
  options.segment_records = 4;
  options.group_size = 3;

  // Learn the op count of a clean run (appends + final flush).
  int64_t total_ops = 0;
  {
    InMemoryFileSystem mem;
    FaultInjectingFileSystem fs(&mem);
    GraphUpdateLog log(&fs, "wal", options);
    std::vector<GraphUpdate> recovered;
    ASSERT_TRUE(log.Open(&recovered).ok());
    fs.ResetOpCount();
    for (uint64_t k = 0; k < kRecords; ++k) {
      ASSERT_TRUE(log.Append(ScriptRecord(k)).ok());
    }
    ASSERT_TRUE(log.Flush().ok());
    total_ops = fs.op_count();
    // Group commit amortizes: far fewer than 2 ops per record.
    EXPECT_LT(total_ops, static_cast<int64_t>(2 * kRecords));
  }
  ASSERT_GT(total_ops, 0);

  for (const FaultMode mode : {FaultMode::kFailCleanly, FaultMode::kTear}) {
    for (int64_t kill_at = 1; kill_at <= total_ops; ++kill_at) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " kill_at=" + std::to_string(kill_at));
      InMemoryFileSystem mem;
      FaultInjectingFileSystem fs(&mem);
      uint64_t durable = 0;
      {
        GraphUpdateLog log(&fs, "wal", options);
        std::vector<GraphUpdate> recovered;
        ASSERT_TRUE(log.Open(&recovered).ok());
        fs.FailFrom(kill_at, mode);
        bool crashed = false;
        for (uint64_t k = 0; k < kRecords; ++k) {
          if (!log.Append(ScriptRecord(k)).ok()) {
            crashed = true;
            break;
          }
        }
        if (!crashed && !log.Flush().ok()) crashed = true;
        ASSERT_TRUE(crashed);
        // After a failed flush next_seq() IS the durable prefix (the
        // pending batch was discarded and rolled back).
        durable = log.next_seq() - static_cast<uint64_t>(log.pending_records());
      }
      fs.Disarm();

      // Recovery replays exactly the durable prefix, in order...
      GraphUpdateLog recovered_log(&fs, "wal", options);
      std::vector<GraphUpdate> replayed;
      ASSERT_TRUE(recovered_log.Open(&replayed).ok());
      ASSERT_EQ(replayed.size(), durable);
      for (uint64_t k = 0; k < durable; ++k) {
        EXPECT_EQ(replayed[k], ScriptRecord(k));
      }
      // ...and appending resumes from there to the full script.
      for (uint64_t k = durable; k < kRecords; ++k) {
        ASSERT_TRUE(recovered_log.Append(ScriptRecord(k)).ok());
      }
      ASSERT_TRUE(recovered_log.Flush().ok());
      GraphUpdateLog final_log(&fs, "wal", options);
      std::vector<GraphUpdate> all;
      ASSERT_TRUE(final_log.Open(&all).ok());
      ASSERT_EQ(all.size(), kRecords);
      for (uint64_t k = 0; k < kRecords; ++k) {
        EXPECT_EQ(all[k], ScriptRecord(k));
      }
    }
  }
}

TEST(DynamicPprTest, ComputeMatchesStaticTableBitwise) {
  const Dataset data = TinyDataset();
  DynamicCkg graph(data.num_users, data.num_items, data.num_kg_nodes,
                   data.num_kg_relations, data.train, data.kg, data.user_kg);
  const PprTable reference = PprTable::Compute(data.BuildCkg());
  const DynamicPprTable dynamic = DynamicPprTable::Compute(graph);
  ASSERT_EQ(dynamic.num_users(), reference.num_users());
  for (int64_t u = 0; u < dynamic.num_users(); ++u) {
    // Same push discipline, same CSR iteration order: bitwise equality.
    const FlatPprVector flat = dynamic.Estimate(u);
    const auto& map = reference.Vector(u);
    ASSERT_EQ(flat.size(), map.size()) << "user " << u;
    for (const auto& [node, value] : flat) {
      const auto it = map.find(node);
      ASSERT_NE(it, map.end()) << "user " << u << " node " << node;
      EXPECT_EQ(std::bit_cast<uint64_t>(value),
                std::bit_cast<uint64_t>(it->second))
          << "user " << u << " node " << node;
    }
  }
}

TEST(DynamicPprTest, EntriesStayInStrictlyAscendingNodeOrder) {
  InMemoryFileSystem fs;
  std::unique_ptr<StreamingCkg> ckg;
  ASSERT_TRUE(StreamingCkg::Open(TinyDataset(), &fs, "wal", SmallSegments(),
                                 nullptr, &ckg)
                  .ok());
  for (const GraphUpdate& update : UpdateScript()) {
    ASSERT_TRUE(ApplyUpdate(*ckg, update).ok());
  }
  const DynamicPprTable& ppr = ckg->ppr();
  for (int64_t u = 0; u < ppr.num_users(); ++u) {
    for (const FlatPprVector& vec : {ppr.Estimate(u), ppr.Residual(u)}) {
      for (size_t i = 1; i < vec.size(); ++i) {
        EXPECT_LT(vec[i - 1].node, vec[i].node)
            << "user " << u << " entry " << i;
      }
    }
  }
}

// Only a popped node gains an estimate entry, and every popped node holds a
// residual entry, so each estimate key is also a residual key.
TEST(DynamicPprTest, EstimateKeysAreResidualKeys) {
  InMemoryFileSystem fs;
  std::unique_ptr<StreamingCkg> ckg;
  ASSERT_TRUE(StreamingCkg::Open(TinyDataset(), &fs, "wal", SmallSegments(),
                                 nullptr, &ckg)
                  .ok());
  for (const GraphUpdate& update : UpdateScript()) {
    ASSERT_TRUE(ApplyUpdate(*ckg, update).ok());
    const DynamicPprTable& ppr = ckg->ppr();
    for (int64_t u = 0; u < ppr.num_users(); ++u) {
      const FlatPprVector residual = ppr.Residual(u);
      for (const auto& [node, value] : ppr.Estimate(u)) {
        EXPECT_TRUE(HasEntry(residual, node))
            << "user " << u << " node " << node;
      }
    }
  }
}

// Two components: an edge inserted in one moves no mass of the other's
// users, so their repair answers from the stored arrays and leaves them
// byte-identical, and the update does not touch them.
TEST(DynamicPprTest, UsersOutsideTheUpdatedComponentAreSkipped) {
  Dataset d;
  d.name = "stream-two-components";
  d.num_users = 4;
  d.num_items = 4;
  d.num_kg_nodes = 6;
  d.num_kg_relations = 1;
  d.train = {{0, 0}, {0, 1}, {1, 1}, {2, 2}, {2, 3}, {3, 3}};
  d.kg = {{0, 0, 4}, {2, 0, 5}};
  InMemoryFileSystem fs;
  std::unique_ptr<StreamingCkg> ckg;
  ASSERT_TRUE(
      StreamingCkg::Open(d, &fs, "wal", SmallSegments(), nullptr, &ckg).ok());
  const std::vector<int64_t> other = {2, 3};
  std::vector<FlatPprVector> estimates, residuals;
  for (const int64_t u : other) {
    estimates.push_back(ckg->ppr().Estimate(u));
    residuals.push_back(ckg->ppr().Residual(u));
  }
  std::vector<std::vector<int64_t>> invalidations;
  ckg->set_invalidation_hook(
      [&](const std::vector<int64_t>& users) { invalidations.push_back(users); });

  ASSERT_TRUE(ckg->AppendInteraction(1, 0).ok());  // inside users 0-1's part
  ASSERT_EQ(invalidations.size(), 1u);
  EXPECT_EQ(invalidations[0], (std::vector<int64_t>{0, 1}));
  EXPECT_GT(ckg->ppr().last_repair_stats().corrections, 0);
  for (size_t k = 0; k < other.size(); ++k) {
    EXPECT_TRUE(SameBytes(ckg->ppr().Estimate(other[k]), estimates[k]))
        << "user " << other[k];
    EXPECT_TRUE(SameBytes(ckg->ppr().Residual(other[k]), residuals[k]))
        << "user " << other[k];
  }
}

TEST(DynamicPprTest, RepairMatchesRecomputeOracleOnScript) {
  InMemoryFileSystem fs;
  std::unique_ptr<StreamingCkg> ckg;
  ASSERT_TRUE(StreamingCkg::Open(TinyDataset(), &fs, "wal", SmallSegments(),
                                 nullptr, &ckg)
                  .ok());
  for (const GraphUpdate& update : UpdateScript()) {
    ASSERT_TRUE(ApplyUpdate(*ckg, update).ok());
    ExpectMatchesRecomputeOracle(*ckg);
  }
  EXPECT_EQ(ckg->stats().duplicates, 2);
  EXPECT_EQ(ckg->stats().applied, 10);
}

TEST(DynamicPprTest, RepairMatchesOracleOnRandomStreams) {
  Rng rng(20260809);
  for (int round = 0; round < 5; ++round) {
    InMemoryFileSystem fs;
    std::unique_ptr<StreamingCkg> ckg;
    ASSERT_TRUE(StreamingCkg::Open(TinyDataset(), &fs, "wal",
                                   SmallSegments(), nullptr, &ckg)
                    .ok());
    const DynamicCkg& graph = ckg->graph();
    for (int k = 0; k < 12; ++k) {
      if (rng.UniformInt(2) == 0) {
        ASSERT_TRUE(ckg->AppendInteraction(
                           rng.UniformInt(graph.num_users()),
                           rng.UniformInt(graph.num_items()))
                        .ok());
      } else {
        ASSERT_TRUE(ckg->AppendKgTriplet(
                           rng.UniformInt(graph.num_kg_nodes()),
                           rng.UniformInt(graph.num_kg_relations()),
                           rng.UniformInt(graph.num_kg_nodes()))
                        .ok());
      }
    }
    ExpectMatchesRecomputeOracle(*ckg);
  }
}

TEST(StreamingCkgTest, TouchedUsersIncludeTheInteractingUser) {
  InMemoryFileSystem fs;
  std::unique_ptr<StreamingCkg> ckg;
  ASSERT_TRUE(StreamingCkg::Open(TinyDataset(), &fs, "wal", SmallSegments(),
                                 nullptr, &ckg)
                  .ok());
  std::vector<std::vector<int64_t>> invalidations;
  ckg->set_invalidation_hook(
      [&](const std::vector<int64_t>& users) { invalidations.push_back(users); });
  ASSERT_TRUE(ckg->AppendInteraction(1, 2).ok());
  ASSERT_EQ(invalidations.size(), 1u);
  EXPECT_TRUE(std::binary_search(invalidations[0].begin(),
                                 invalidations[0].end(), 1));
  // A duplicate applies nothing and must not invalidate anyone.
  ASSERT_TRUE(ckg->AppendInteraction(1, 2).ok());
  EXPECT_EQ(invalidations.size(), 1u);
}

TEST(StreamingCkgTest, RejectsOutOfRangeUpdates) {
  InMemoryFileSystem fs;
  std::unique_ptr<StreamingCkg> ckg;
  ASSERT_TRUE(StreamingCkg::Open(TinyDataset(), &fs, "wal", SmallSegments(),
                                 nullptr, &ckg)
                  .ok());
  const uint64_t seq_before = ckg->wal().next_seq();
  EXPECT_FALSE(ckg->AppendInteraction(-1, 0).ok());
  EXPECT_FALSE(ckg->AppendInteraction(0, 99).ok());
  EXPECT_FALSE(ckg->AppendKgTriplet(0, 99, 0).ok());
  EXPECT_FALSE(ckg->AppendKgTriplet(99, 0, 0).ok());
  // Rejected updates are never logged.
  EXPECT_EQ(ckg->wal().next_seq(), seq_before);
}

// Every user's PPR state spans all graph nodes however few rows the data
// holds: 2^20 users over 2^20 + 2^22 nodes would take ~85 TiB, so Open
// must refuse before it builds the graph or sizes the table.
TEST(StreamingCkgTest, RefusesSizesWhosePprStateExceedsPhysicalMemory) {
  Dataset d = TinyDataset();
  d.num_users = int64_t{1} << 20;
  d.num_kg_nodes = int64_t{1} << 22;
  InMemoryFileSystem fs;
  std::unique_ptr<StreamingCkg> ckg;
  const Status st =
      StreamingCkg::Open(d, &fs, "wal", SmallSegments(), nullptr, &ckg);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("1048576 users and 4194304 KG nodes"),
            std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("physical memory"), std::string::npos)
      << st.message();
  EXPECT_EQ(ckg, nullptr);
}

TEST(StreamingCkgTest, RecoveryReplayMatchesUninterruptedRun) {
  InMemoryFileSystem fs;
  uint64_t uninterrupted_digest = 0;
  {
    std::unique_ptr<StreamingCkg> ckg;
    ASSERT_TRUE(StreamingCkg::Open(TinyDataset(), &fs, "wal",
                                   SmallSegments(), nullptr, &ckg)
                    .ok());
    for (const GraphUpdate& update : UpdateScript()) {
      ASSERT_TRUE(ApplyUpdate(*ckg, update).ok());
    }
    uninterrupted_digest = ckg->StateDigest();
  }
  std::unique_ptr<StreamingCkg> recovered;
  ASSERT_TRUE(StreamingCkg::Open(TinyDataset(), &fs, "wal", SmallSegments(),
                                 nullptr, &recovered)
                  .ok());
  EXPECT_EQ(recovered->stats().replayed, 12);
  EXPECT_EQ(recovered->StateDigest(), uninterrupted_digest);
}

TEST(StreamingCkgTest, StateDigestAfterScriptIsPinned) {
  // Every estimate and residual bit of the streamed table, pinned: a change
  // to the push loop or the repair rule that moves any of them moves this
  // literal. Move it only in a change that means to alter the PPR state.
  InMemoryFileSystem fs;
  std::unique_ptr<StreamingCkg> ckg;
  ASSERT_TRUE(StreamingCkg::Open(TinyDataset(), &fs, "wal", SmallSegments(),
                                 nullptr, &ckg)
                  .ok());
  for (const GraphUpdate& update : UpdateScript()) {
    ASSERT_TRUE(ApplyUpdate(*ckg, update).ok());
  }
  EXPECT_EQ(ckg->StateDigest(), 0x210efd0e3970fe9dULL);
}

TEST(StreamingCkgTest, RepairIsIdenticalAcrossThreadCounts) {
  InMemoryFileSystem fs_serial;
  InMemoryFileSystem fs_pooled;
  ThreadPool pool(3);
  std::unique_ptr<StreamingCkg> serial;
  std::unique_ptr<StreamingCkg> pooled;
  ASSERT_TRUE(StreamingCkg::Open(TinyDataset(), &fs_serial, "wal",
                                 SmallSegments(), nullptr, &serial)
                  .ok());
  ASSERT_TRUE(StreamingCkg::Open(TinyDataset(), &fs_pooled, "wal",
                                 SmallSegments(), &pool, &pooled)
                  .ok());
  for (const GraphUpdate& update : UpdateScript()) {
    ASSERT_TRUE(ApplyUpdate(*serial, update).ok());
    ASSERT_TRUE(ApplyUpdate(*pooled, update).ok());
  }
  EXPECT_EQ(serial->StateDigest(), pooled->StateDigest());
}

// The point of repairing locally: on synth-lastfm's temporal suffix the
// median update (WAL append, edge insert, local push) takes at most a fifth
// of the median full recompute of the table on the same graph. Wall clock,
// both on the global pool, p50 against p50, so one slow sample on a shared
// host moves neither side much.
TEST(StreamingCkgTest, RepairIsFiveTimesFasterThanRecomputeAtP50) {
  constexpr size_t kUpdates = 40;
  constexpr int64_t kRecomputeStride = 8;  // recompute after every 8th apply
  const SyntheticData synth = GenerateSynthetic(SynthLastFmConfig());
  const Dataset data = TemporalSplit(synth.raw, synth.arrival_order, 0.8);
  ASSERT_GE(data.test.size(), kUpdates);
  InMemoryFileSystem fs;
  std::unique_ptr<StreamingCkg> ckg;
  ASSERT_TRUE(StreamingCkg::Open(data, &fs, "wal", StreamingCkgOptions(),
                                 &GlobalPool(), &ckg)
                  .ok());

  std::vector<int64_t> repair_us;
  std::vector<int64_t> recompute_us;
  for (size_t k = 0; k < kUpdates; ++k) {
    const int64_t applied_before = ckg->stats().applied;
    Stopwatch repair;
    ASSERT_TRUE(ckg->AppendInteraction(data.test[k][0], data.test[k][1]).ok());
    const int64_t elapsed = repair.ElapsedMicros();
    if (ckg->stats().applied == applied_before) continue;  // a duplicate
    repair_us.push_back(elapsed);
    if (ckg->stats().applied % kRecomputeStride == 0) {
      Stopwatch recompute;
      const DynamicPprTable fresh = DynamicPprTable::Compute(
          ckg->graph(), StreamingCkgOptions().ppr, &GlobalPool());
      recompute_us.push_back(recompute.ElapsedMicros());
      ASSERT_EQ(fresh.num_users(), data.num_users);
    }
  }
  ASSERT_FALSE(recompute_us.empty());
  auto median = [](std::vector<int64_t> samples) {
    std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                     samples.end());
    return samples[samples.size() / 2];
  };
  const int64_t repair_p50 = median(repair_us);
  const int64_t recompute_p50 = median(recompute_us);
  std::printf("repair p50 %lld us over %zu updates, recompute p50 %lld us "
              "over %zu: %.1fx\n",
              static_cast<long long>(repair_p50), repair_us.size(),
              static_cast<long long>(recompute_p50), recompute_us.size(),
              static_cast<double>(recompute_p50) /
                  static_cast<double>(std::max<int64_t>(repair_p50, 1)));
  EXPECT_GE(recompute_p50, 5 * repair_p50)
      << "incremental repair is less than 5x faster than a full recompute";
}

// The flagship robustness sweep: arm a fault at every single io operation
// the streaming phase performs (both clean-failure and torn-write modes),
// crash there, recover, and require the recovered state to be byte-identical
// (StateDigest) to an uninterrupted run over the acked prefix — then finish
// the remaining updates and require byte-identity with the full clean run.
TEST(StreamingCkgTest, KillAtEveryWalOpSweepRecoversByteIdentical) {
  const Dataset data = TinyDataset();
  const std::vector<GraphUpdate> script = UpdateScript();

  // Reference digests from a clean run: digest_after[i] = state after the
  // first i accepted appends.
  std::vector<uint64_t> digest_after;
  int64_t total_stream_ops = 0;
  {
    InMemoryFileSystem mem;
    FaultInjectingFileSystem fs(&mem);
    std::unique_ptr<StreamingCkg> ckg;
    ASSERT_TRUE(StreamingCkg::Open(data, &fs, "wal", SmallSegments(),
                                   nullptr, &ckg)
                    .ok());
    fs.ResetOpCount();
    digest_after.push_back(ckg->StateDigest());
    for (const GraphUpdate& update : script) {
      ASSERT_TRUE(ApplyUpdate(*ckg, update).ok());
      digest_after.push_back(ckg->StateDigest());
    }
    total_stream_ops = fs.op_count();
  }
  // 12 appends at 2 ops each plus segment-seal renames.
  ASSERT_GE(total_stream_ops, 24);

  for (const FaultMode mode : {FaultMode::kFailCleanly, FaultMode::kTear}) {
    for (int64_t kill_at = 1; kill_at <= total_stream_ops; ++kill_at) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " kill_at=" + std::to_string(kill_at));
      InMemoryFileSystem mem;
      FaultInjectingFileSystem fs(&mem);
      size_t acked = 0;
      {
        std::unique_ptr<StreamingCkg> ckg;
        ASSERT_TRUE(StreamingCkg::Open(data, &fs, "wal", SmallSegments(),
                                       nullptr, &ckg)
                        .ok());
        fs.FailFrom(kill_at, mode);
        for (const GraphUpdate& update : script) {
          if (!ApplyUpdate(*ckg, update).ok()) break;  // the "crash"
          ++acked;
        }
        EXPECT_EQ(fs.faults_fired() > 0, acked < script.size());
      }
      fs.Disarm();

      // Recovery must reconstruct exactly the acked prefix...
      std::unique_ptr<StreamingCkg> recovered;
      ASSERT_TRUE(StreamingCkg::Open(data, &fs, "wal", SmallSegments(),
                                     nullptr, &recovered)
                      .ok());
      EXPECT_EQ(static_cast<size_t>(recovered->stats().replayed), acked);
      EXPECT_EQ(recovered->StateDigest(), digest_after[acked]);

      // ...and streaming must be able to pick up where it left off.
      for (size_t k = acked; k < script.size(); ++k) {
        ASSERT_TRUE(ApplyUpdate(*recovered, script[k]).ok());
      }
      EXPECT_EQ(recovered->StateDigest(), digest_after.back());
    }
  }
}

}  // namespace
}  // namespace kucnet
