// The web-scale data plane (src/store/): the streamed, built and
// container-loaded graphs against the set-based testing::OracleAdjacency,
// the push against the oracle push, the 32-bit id overflow policy, KUCSTOR1
// container roundtrips across every load path, a whole-file corruption sweep
// (every flipped byte either fails with file:line:cause or is provably
// harmless padding), and crash sweeps killing save/load at every single IO
// op.

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/ckg.h"
#include "ppr/ppr.h"
#include "store/container.h"
#include "store/web_scale.h"
#include "testing/oracle.h"
#include "util/fs.h"
#include "util/serial.h"
#include "util/status.h"

namespace kucnet {
namespace {

using testing::AdjacencyDifference;
using testing::OracleAdjacency;

/// A small fixed configuration with real structure: Zipf-skewed popularity,
/// isolated entities, duplicate interactions likely.
WebScaleConfig TinyConfig() {
  WebScaleConfig config;
  config.name = "store-test";
  config.seed = 41;
  config.num_users = 12;
  config.num_items = 9;
  config.num_entities = 7;
  config.num_kg_relations = 3;
  config.interactions_per_user = 4;
  config.num_kg_triplets = 30;
  return config;
}

/// The exact inputs the generator streams.
struct Inputs {
  std::vector<std::array<int64_t, 2>> interactions;
  std::vector<std::array<int64_t, 3>> kg;
};

Inputs Materialize(const WebScaleConfig& config) {
  Inputs in;
  MaterializeWebScaleInputs(config, &in.interactions, &in.kg);
  return in;
}

/// The set-based oracle over the generator's inputs.
OracleAdjacency BuildOracle(const WebScaleConfig& config) {
  const Inputs in = Materialize(config);
  return OracleAdjacency(config.num_users, config.num_items,
                         config.num_kg_nodes(), config.num_kg_relations,
                         in.interactions, in.kg);
}

// ---- Graphs against the oracle -----------------------------------------------

TEST(StoreGraphTest, GeneratedAndBuiltGraphsMatchOracleAdjacency) {
  const WebScaleConfig config = TinyConfig();
  const OracleAdjacency oracle = BuildOracle(config);
  Ckg generated;
  ASSERT_TRUE(TryGenerateWebScaleGraph(config, &generated).ok());
  EXPECT_EQ(AdjacencyDifference(generated, oracle), "");
  EXPECT_TRUE(generated.ValidateTopology().ok());

  const Inputs in = Materialize(config);
  Ckg built;
  ASSERT_TRUE(Ckg::TryBuild(config.num_users, config.num_items,
                                   config.num_kg_nodes(),
                                   config.num_kg_relations, in.interactions,
                                   in.kg, {}, &built)
                  .ok());
  EXPECT_EQ(AdjacencyDifference(built, oracle), "");
  EXPECT_TRUE(built.ValidateTopology().ok());
}

TEST(StoreGraphTest, PprForwardPushMatchesTheOraclePushBitwise) {
  const WebScaleConfig config = TinyConfig();
  Ckg graph;
  ASSERT_TRUE(TryGenerateWebScaleGraph(config, &graph).ok());
  for (int64_t source = 0; source < graph.num_nodes(); ++source) {
    const auto push = PprForwardPush(graph, source);
    const testing::OraclePprResult oracle =
        testing::OraclePprPush(graph, source, 0.15, 1e-6);
    ASSERT_EQ(push.size(), oracle.estimate.size()) << "source " << source;
    for (const auto& [node, value] : oracle.estimate) {
      const auto it = push.find(node);
      ASSERT_NE(it, push.end()) << "source " << source << " node " << node;
      // Same push transcript over the narrow spans: exact equality, not
      // within-epsilon.
      EXPECT_EQ(it->second, value) << "source " << source << " node " << node;
    }
  }
}

TEST(StoreGraphTest, FootprintIsWellUnderHalfOfAnInt64Layout) {
  const WebScaleConfig config = TinyConfig();
  Ckg graph;
  ASSERT_TRUE(TryGenerateWebScaleGraph(config, &graph).ok());
  const int64_t int64_bytes =
      (graph.num_nodes() + 1) * 8 + graph.num_edges() * 16;
  EXPECT_LE(graph.bytes_resident() * 100, int64_bytes * 40)
      << "bytes/edge must stay <= 40% of an int64 CSR layout";
}

// ---- Overflow policy ---------------------------------------------------------

TEST(StoreGraphTest, RelationOverflowIsRecoverableStatus) {
  Ckg out;
  const Status st =
      Ckg::TryBuild(1, 1, 1, /*num_kg_relations=*/40'000, {}, {}, {},
                           &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("overflow 16-bit"), std::string::npos)
      << st.message();
}

TEST(StoreGraphTest, NodeOverflowIsRecoverableStatusBeforeAllocation) {
  Ckg out;
  // 5e9 nodes would be a 20 GB row-pointer array; the overflow check must
  // fire before any allocation is attempted.
  const Status st = Ckg::TryBuild(5'000'000'000, 1, 1, 1, {}, {}, {},
                                         &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("overflow 32-bit"), std::string::npos)
      << st.message();
}

TEST(StoreGraphTest, OutOfRangeEdgeIsRecoverableStatus) {
  Ckg out;
  const std::vector<std::array<int64_t, 2>> bad_inter = {{0, 99}};
  const Status st = Ckg::TryBuild(2, 3, 3, 1, bad_inter, {}, {}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("out of range"), std::string::npos)
      << st.message();
}

// Same edge *count* on both passes but different content: without pass-2
// re-validation this would index the row cursors out of range (or run a
// row's writes into its neighbor's) — silent arena corruption instead of a
// recoverable Status.
TEST(StoreGraphTest, ContentDivergentSecondPassIsARecoverableStatus) {
  // Case 1: pass 2 routes the edges to a different (valid) source whose
  // pass-1 row is empty, overflowing that row's cursor.
  Ckg out;
  int pass = 0;
  Status st = Ckg::TryAssemble(
      2, 1, 1, 1,
      [&pass](auto&& sink) {
        ++pass;
        const int64_t src = pass == 1 ? 0 : 2;
        sink(src, 0, 1);
        sink(src, 0, 1);
      },
      &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not deterministic"), std::string::npos)
      << st.message();

  // Case 2: pass 2 emits a source id far outside [0, n).
  pass = 0;
  st = Ckg::TryAssemble(
      2, 1, 1, 1,
      [&pass](auto&& sink) { sink(++pass == 1 ? 0 : 99, 0, 1); }, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not deterministic"), std::string::npos)
      << st.message();
}

TEST(StoreGraphTest, NonDeterministicEmitStreamIsRejected) {
  Ckg out;
  int pass = 0;
  const Status st = Ckg::TryAssemble(
      1, 1, 1, 1,
      [&pass](auto&& sink) {
        ++pass;
        sink(0, 0, 1);
        if (pass == 2) sink(1, 0, 0);  // extra edge only on pass 2
      },
      &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not deterministic"), std::string::npos)
      << st.message();
}

// ---- Container roundtrips ----------------------------------------------------

class ContainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TinyConfig();
    ASSERT_TRUE(TryGenerateWebScaleGraph(config_, &graph_).ok());
    ASSERT_TRUE(SaveCkgContainer(fs_, kPath, graph_).ok());
  }

  static constexpr const char* kPath = "/store/test.kucstor";
  WebScaleConfig config_;
  const OracleAdjacency oracle_ = BuildOracle(TinyConfig());
  Ckg graph_;
  InMemoryFileSystem fs_;
};

TEST_F(ContainerTest, RoundTripsOnEveryLoadPath) {
  for (const bool use_mmap : {true, false}) {
    for (const bool verify : {true, false}) {
      StoreLoadOptions options;
      options.use_mmap = use_mmap;
      options.verify_checksums = verify;
      Ckg loaded;
      StoreLoadStats stats;
      ASSERT_TRUE(LoadCkgContainer(fs_, kPath, options, &loaded, &stats).ok())
          << "mmap=" << use_mmap << " verify=" << verify;
      EXPECT_EQ(AdjacencyDifference(loaded, oracle_), "")
          << "mmap=" << use_mmap << " verify=" << verify;
      EXPECT_TRUE(loaded.ValidateTopology().ok());
      // The in-memory filesystem emulates the mapping with a heap copy.
      EXPECT_FALSE(stats.mmap_backed);
      // Full reads always verify; mmap loads verify on request.
      EXPECT_EQ(stats.sections_verified, verify || !use_mmap);
    }
  }
}

TEST_F(ContainerTest, RealFilesystemLoadIsKernelMapped) {
  FileSystem& real = DefaultFileSystem();
  const std::string path = ::testing::TempDir() + "/store_mmap.kucstor";
  ASSERT_TRUE(SaveCkgContainer(real, path, graph_).ok());
  Ckg loaded;
  StoreLoadStats stats;
  ASSERT_TRUE(LoadCkgContainer(real, path, StoreLoadOptions(), &loaded, &stats)
                  .ok());
  EXPECT_TRUE(stats.mmap_backed);
  EXPECT_TRUE(loaded.mmap_backed());
  EXPECT_EQ(AdjacencyDifference(loaded, oracle_), "");
  ASSERT_TRUE(real.Remove(path).ok());
}

TEST_F(ContainerTest, MissingFileIsRecoverableStatus) {
  Ckg loaded;
  const Status st =
      LoadCkgContainer(fs_, "/store/nope.kucstor", StoreLoadOptions(), &loaded,
                     nullptr);
  ASSERT_FALSE(st.ok());
}

// Every single-byte flip anywhere in the container must either fail with a
// recoverable Status carrying "container.cc:<line>" and a cause, or — for
// the few unchecksummed alignment-padding bytes — load a graph structurally
// identical to the original. Never a crash, never silent corruption.
TEST_F(ContainerTest, EveryFlippedByteFailsWithFileLineCauseOrIsPadding) {
  std::string image;
  ASSERT_TRUE(fs_.ReadFile(kPath, &image).ok());
  StoreLoadOptions options;
  options.verify_checksums = true;
  int64_t rejected = 0;
  int64_t padding = 0;
  for (size_t i = 0; i < image.size(); ++i) {
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    InMemoryFileSystem corrupt_fs;
    ASSERT_TRUE(corrupt_fs.WriteFile(kPath, corrupt).ok());
    Ckg loaded;
    const Status st =
        LoadCkgContainer(corrupt_fs, kPath, options, &loaded, nullptr);
    if (st.ok()) {
      EXPECT_EQ(AdjacencyDifference(loaded, oracle_), "")
          << "flip at byte " << i << " loaded a different graph";
      ++padding;
      continue;
    }
    EXPECT_NE(st.message().find("container.cc:"), std::string::npos)
        << "flip at byte " << i << " lacks file:line: " << st.message();
    ++rejected;
  }
  // The checksums must cover essentially the whole file: only inter-section
  // alignment padding (at most 7 bytes per section boundary) may slip.
  EXPECT_GT(rejected, static_cast<int64_t>(image.size()) - 5 * 8);
  EXPECT_LT(padding, 5 * 8);
}

// A crafted section length near UINT64_MAX defeats naive `length + 8`
// bounds arithmetic by wrapping to a small value, and the table checksum is
// trivially recomputable (FNV, no secret), so the file passes every
// integrity check on the way in. The bounds check must reject it with
// subtraction-only comparisons before any section/footer byte is touched.
TEST_F(ContainerTest, CraftedHugeSectionLengthWithValidChecksumsIsRejected) {
  std::string image;
  ASSERT_TRUE(fs_.ReadFile(kPath, &image).ok());
  constexpr uint64_t kTableEntryBytes = 24;
  constexpr uint64_t kTableSections = 4;
  constexpr uint64_t kTableBytes = kTableSections * kTableEntryBytes;
  uint64_t table_offset = 0;
  std::memcpy(&table_offset, image.data() + 24, 8);
  for (uint64_t s = 0; s < kTableSections; ++s) {
    for (const uint64_t crafted :
         {UINT64_MAX, UINT64_MAX - 7, uint64_t{1} << 63}) {
      std::string corrupt = image;
      std::memcpy(
          corrupt.data() + table_offset + s * kTableEntryBytes + 16,
          &crafted, 8);
      const uint64_t footer = Fnv1a64(corrupt.data() + table_offset,
                                      kTableBytes);
      std::memcpy(corrupt.data() + table_offset + kTableBytes, &footer, 8);
      InMemoryFileSystem corrupt_fs;
      ASSERT_TRUE(corrupt_fs.WriteFile(kPath, corrupt).ok());
      for (const bool use_mmap : {true, false}) {
        StoreLoadOptions options;
        options.use_mmap = use_mmap;
        Ckg loaded;
        const Status st =
            LoadCkgContainer(corrupt_fs, kPath, options, &loaded, nullptr);
        ASSERT_FALSE(st.ok()) << "section " << s << " length " << crafted
                              << " mmap=" << use_mmap;
        EXPECT_NE(st.message().find("container.cc:"), std::string::npos)
            << st.message();
      }
    }
  }
}

TEST_F(ContainerTest, TruncationAtEveryLengthIsRejectedWithFileLine) {
  std::string image;
  ASSERT_TRUE(fs_.ReadFile(kPath, &image).ok());
  for (size_t len = 0; len < image.size(); len += 7) {
    InMemoryFileSystem short_fs;
    ASSERT_TRUE(short_fs.WriteFile(kPath, image.substr(0, len)).ok());
    Ckg loaded;
    const Status st =
        LoadCkgContainer(short_fs, kPath, StoreLoadOptions(), &loaded, nullptr);
    ASSERT_FALSE(st.ok()) << "truncated to " << len << " bytes";
    EXPECT_NE(st.message().find("container.cc:"), std::string::npos)
        << st.message();
  }
}

// ---- Crash sweeps ------------------------------------------------------------

TEST_F(ContainerTest, SaveKilledAtEveryOpNeverCorruptsThePreviousContainer) {
  for (const FaultMode mode : {FaultMode::kFailCleanly, FaultMode::kTear}) {
    InMemoryFileSystem base;
    FaultInjectingFileSystem faulty(&base);
    // A valid older container is already in place.
    ASSERT_TRUE(SaveCkgContainer(base, kPath, graph_).ok());

    // Learn the op count of a clean save, then kill at every op.
    WebScaleConfig bigger = config_;
    bigger.num_kg_triplets += 8;
    Ckg next;
    ASSERT_TRUE(TryGenerateWebScaleGraph(bigger, &next).ok());
    faulty.ResetOpCount();
    ASSERT_TRUE(SaveCkgContainer(faulty, kPath, next).ok());
    const int64_t ops = faulty.op_count();
    ASSERT_GT(ops, 0);

    for (int64_t kill_at = 1; kill_at <= ops; ++kill_at) {
      ASSERT_TRUE(SaveCkgContainer(base, kPath, graph_).ok());  // reset old
      faulty.FailFrom(kill_at, mode);
      const Status st = SaveCkgContainer(faulty, kPath, next);
      faulty.Disarm();
      ASSERT_FALSE(st.ok()) << "kill_at=" << kill_at;
      // Atomic replacement: the old container still loads, bit for bit.
      Ckg loaded;
      ASSERT_TRUE(
          LoadCkgContainer(base, kPath, StoreLoadOptions(), &loaded, nullptr)
              .ok())
          << "kill_at=" << kill_at;
      EXPECT_EQ(AdjacencyDifference(loaded, oracle_), "")
          << "kill_at=" << kill_at;
    }
  }
}

TEST_F(ContainerTest, LoadKilledAtEveryOpFailsCleanlyOnEveryPath) {
  for (const FaultMode mode : {FaultMode::kFailCleanly, FaultMode::kTear}) {
    for (const bool use_mmap : {true, false}) {
      InMemoryFileSystem base;
      FaultInjectingFileSystem faulty(&base);
      ASSERT_TRUE(SaveCkgContainer(base, kPath, graph_).ok());
      StoreLoadOptions options;
      options.use_mmap = use_mmap;
      faulty.ResetOpCount();
      Ckg warm;
      ASSERT_TRUE(
          LoadCkgContainer(faulty, kPath, options, &warm, nullptr).ok());
      const int64_t ops = faulty.op_count();
      ASSERT_GT(ops, 0);
      for (int64_t kill_at = 1; kill_at <= ops; ++kill_at) {
        faulty.FailFrom(kill_at, mode);
        Ckg loaded;
        const Status st =
            LoadCkgContainer(faulty, kPath, options, &loaded, nullptr);
        faulty.Disarm();
        // A torn map/read may surface as an IO error or as a checksum /
        // length validation failure — either way a recoverable Status.
        ASSERT_FALSE(st.ok()) << "mode=" << static_cast<int>(mode)
                              << " mmap=" << use_mmap
                              << " kill_at=" << kill_at;
      }
    }
  }
}

}  // namespace
}  // namespace kucnet
