#include <algorithm>
#include <filesystem>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/serialize.h"
#include "data/synthetic.h"
#include "util/fs.h"
#include "util/rng.h"

namespace kucnet {
namespace {

RawData SmallRaw(uint64_t seed = 5) {
  SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.num_users = 40;
  cfg.num_items = 60;
  cfg.num_topics = 4;
  cfg.interactions_per_user = 8;
  return GenerateSynthetic(cfg).raw;
}

TEST(SyntheticTest, DeterministicInSeed) {
  SyntheticConfig cfg;
  cfg.seed = 9;
  const auto a = GenerateSynthetic(cfg);
  const auto b = GenerateSynthetic(cfg);
  EXPECT_EQ(a.raw.interactions, b.raw.interactions);
  EXPECT_EQ(a.raw.kg, b.raw.kg);
  EXPECT_EQ(a.item_topic, b.item_topic);
}

TEST(SyntheticTest, RespectsConfiguredSizes) {
  SyntheticConfig cfg;
  cfg.num_users = 25;
  cfg.num_items = 50;
  cfg.num_topics = 5;
  cfg.entities_per_topic = 4;
  cfg.num_shared_entities = 7;
  cfg.interactions_per_user = 6;
  const auto data = GenerateSynthetic(cfg);
  EXPECT_EQ(data.raw.num_users, 25);
  EXPECT_EQ(data.raw.num_items, 50);
  EXPECT_EQ(data.raw.num_kg_nodes, 50 + 5 * 4 + 7);
  EXPECT_EQ(static_cast<int64_t>(data.item_topic.size()), 50);
  // Roughly interactions_per_user each (rejection may fall slightly short).
  EXPECT_GE(static_cast<int64_t>(data.raw.interactions.size()), 25 * 4);
  EXPECT_LE(static_cast<int64_t>(data.raw.interactions.size()), 25 * 6);
  // All ids in range, no duplicate pairs.
  std::set<std::array<int64_t, 2>> unique_pairs;
  for (const auto& [u, i] : data.raw.interactions) {
    EXPECT_GE(u, 0);
    EXPECT_LT(u, 25);
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 50);
    EXPECT_TRUE(unique_pairs.insert({u, i}).second);
  }
}

TEST(SyntheticTest, InteractionsConcentrateOnPreferredTopics) {
  SyntheticConfig cfg;
  cfg.seed = 3;
  cfg.topic_concentration = 0.9;
  const auto data = GenerateSynthetic(cfg);
  int64_t on_primary = 0;
  for (const auto& [u, i] : data.raw.interactions) {
    if (data.item_topic[i] == data.user_primary_topic[u]) ++on_primary;
  }
  const double frac =
      static_cast<double>(on_primary) / data.raw.interactions.size();
  // 0.9 * 0.75 ~ 0.68 expected on the primary topic alone; demand > chance.
  EXPECT_GT(frac, 3.0 / cfg.num_topics);
}

TEST(SyntheticTest, LowNoiseKgIsTopicAligned) {
  SyntheticConfig cfg;
  cfg.seed = 4;
  cfg.kg_noise = 0.0;
  cfg.entity_entity_edges_per_topic = 0;
  const auto data = GenerateSynthetic(cfg);
  for (const auto& [head, rel, tail] : data.raw.kg) {
    ASSERT_LT(head, cfg.num_items);  // item->entity only
    const int64_t entity_local = tail - cfg.num_items;
    EXPECT_EQ(data.entity_topic[entity_local], data.item_topic[head]);
  }
}

TEST(SyntheticTest, HighNoiseKgIsNot) {
  SyntheticConfig cfg;
  cfg.seed = 4;
  cfg.kg_noise = 1.0;
  cfg.entity_entity_edges_per_topic = 0;
  const auto data = GenerateSynthetic(cfg);
  int64_t aligned = 0;
  for (const auto& [head, rel, tail] : data.raw.kg) {
    const int64_t entity_local = tail - cfg.num_items;
    aligned += (data.entity_topic[entity_local] == data.item_topic[head]);
  }
  const double frac = static_cast<double>(aligned) / data.raw.kg.size();
  EXPECT_LT(frac, 0.35);  // ~1/num_topics plus shared entities
}

TEST(SyntheticTest, UserSideKgOnlyWhenConfigured) {
  auto without = GenerateSynthetic(SynthLastFmConfig());
  EXPECT_TRUE(without.raw.user_kg.empty());
  auto with = GenerateSynthetic(SynthDisGeNetConfig());
  EXPECT_FALSE(with.raw.user_kg.empty());
  for (const auto& [h, r, t] : with.raw.user_kg) {
    EXPECT_LT(h, with.raw.num_users);
    EXPECT_LT(t, with.raw.num_users);
    EXPECT_LT(r, with.raw.num_kg_relations);
  }
}

TEST(SyntheticTest, NamedConfigsResolve) {
  for (const char* name : {"synth-lastfm", "synth-amazon-book",
                           "synth-ifashion", "synth-disgenet"}) {
    SyntheticConfig cfg;
    ASSERT_TRUE(SynthConfigByName(name, &cfg).ok());
    EXPECT_EQ(cfg.name, name);
    const auto data = GenerateSynthetic(cfg);
    EXPECT_GT(data.raw.interactions.size(), 0u);
    EXPECT_GT(data.raw.kg.size(), 0u);
  }
}

TEST(SyntheticTest, UnknownConfigNameIsAnError) {
  SyntheticConfig cfg;
  const Status st = SynthConfigByName("nope", &cfg);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "unknown synthetic config: nope");
}

TEST(SplitTest, TraditionalTestItemsAppearInTraining) {
  RawData raw = SmallRaw();
  Rng rng(1);
  Dataset d = TraditionalSplit(raw, 0.2, rng);
  EXPECT_EQ(d.kind, SplitKind::kTraditional);
  std::unordered_set<int64_t> train_items;
  for (const auto& [u, i] : d.train) train_items.insert(i);
  for (const auto& [u, i] : d.test) {
    EXPECT_TRUE(train_items.count(i)) << "test item " << i;
  }
  EXPECT_GT(d.test.size(), 0u);
  EXPECT_GT(d.train.size(), d.test.size());
}

TEST(SplitTest, TraditionalNoOverlapBetweenTrainAndTestPairs) {
  RawData raw = SmallRaw();
  Rng rng(2);
  Dataset d = TraditionalSplit(raw, 0.25, rng);
  std::set<std::array<int64_t, 2>> train_set(d.train.begin(), d.train.end());
  for (const auto& pair : d.test) {
    EXPECT_FALSE(train_set.count(pair));
  }
}

TEST(SplitTest, NewItemTestItemsNeverTrained) {
  RawData raw = SmallRaw();
  Rng rng(3);
  Dataset d = NewItemSplit(raw, 0.2, rng);
  EXPECT_EQ(d.kind, SplitKind::kNewItem);
  std::unordered_set<int64_t> train_items, test_items;
  for (const auto& [u, i] : d.train) train_items.insert(i);
  for (const auto& [u, i] : d.test) test_items.insert(i);
  for (const int64_t i : test_items) {
    EXPECT_FALSE(train_items.count(i)) << "leaked item " << i;
  }
  // Split preserves every interaction.
  const std::set<std::array<int64_t, 2>> unique(raw.interactions.begin(),
                                                raw.interactions.end());
  EXPECT_EQ(d.train.size() + d.test.size(), unique.size());
}

TEST(SplitTest, NewUserTestUsersNeverTrained) {
  RawData raw = SmallRaw();
  Rng rng(4);
  Dataset d = NewUserSplit(raw, 0.2, rng);
  EXPECT_EQ(d.kind, SplitKind::kNewUser);
  std::unordered_set<int64_t> train_users, test_users;
  for (const auto& [u, i] : d.train) train_users.insert(u);
  for (const auto& [u, i] : d.test) test_users.insert(u);
  for (const int64_t u : test_users) {
    EXPECT_FALSE(train_users.count(u)) << "leaked user " << u;
  }
}

TEST(SplitTest, KgIsPreservedByAllSplits) {
  RawData raw = SmallRaw();
  Rng rng(5);
  for (const Dataset& d :
       {TraditionalSplit(raw, 0.2, rng), NewItemSplit(raw, 0.2, rng),
        NewUserSplit(raw, 0.2, rng)}) {
    EXPECT_EQ(d.kg, raw.kg);
    EXPECT_EQ(d.num_kg_nodes, raw.num_kg_nodes);
  }
}

TEST(DatasetTest, AccessorsConsistent) {
  RawData raw = SmallRaw();
  Rng rng(6);
  Dataset d = TraditionalSplit(raw, 0.2, rng);
  const auto train_by_user = d.TrainItemsByUser();
  const auto test_by_user = d.TestItemsByUser();
  int64_t train_total = 0, test_total = 0;
  for (const auto& v : train_by_user) train_total += v.size();
  for (const auto& v : test_by_user) test_total += v.size();
  EXPECT_EQ(train_total, static_cast<int64_t>(d.train.size()));
  EXPECT_EQ(test_total, static_cast<int64_t>(d.test.size()));
  const auto test_users = d.TestUsers();
  for (const int64_t u : test_users) {
    EXPECT_FALSE(test_by_user[u].empty());
  }
  EXPECT_FALSE(d.Summary().empty());
}

TEST(DatasetTest, BuildCkgShapes) {
  RawData raw = SmallRaw();
  Rng rng(7);
  Dataset d = TraditionalSplit(raw, 0.2, rng);
  Ckg g = d.BuildCkg();
  EXPECT_EQ(g.num_users(), d.num_users);
  EXPECT_EQ(g.num_items(), d.num_items);
  EXPECT_EQ(g.num_kg_nodes(), d.num_kg_nodes);
  // Every training interaction is an edge; test interactions are not.
  const auto items0 = g.ItemsOfUser(0);
  const std::set<int64_t> items0_set(items0.begin(), items0.end());
  const auto train_by_user = d.TrainItemsByUser();
  for (const int64_t i : train_by_user[0]) {
    EXPECT_TRUE(items0_set.count(i));
  }
  const auto test_by_user = d.TestItemsByUser();
  for (const int64_t i : test_by_user[0]) {
    EXPECT_FALSE(items0_set.count(i));
  }
}

TEST(SerializeTest, RoundTrip) {
  RawData raw = SmallRaw();
  Rng rng(8);
  Dataset d = NewItemSplit(raw, 0.2, rng);
  const std::string dir = ::testing::TempDir() + "/roundtrip_plain";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(TrySaveDataset(d, dir).ok());
  Dataset loaded;
  ASSERT_TRUE(TryLoadDataset(dir, &loaded).ok());
  EXPECT_EQ(loaded.name, d.name);
  EXPECT_EQ(loaded.kind, d.kind);
  EXPECT_EQ(loaded.num_users, d.num_users);
  EXPECT_EQ(loaded.num_items, d.num_items);
  EXPECT_EQ(loaded.num_kg_nodes, d.num_kg_nodes);
  EXPECT_EQ(loaded.num_kg_relations, d.num_kg_relations);
  EXPECT_EQ(loaded.train, d.train);
  EXPECT_EQ(loaded.test, d.test);
  EXPECT_EQ(loaded.kg, d.kg);
  EXPECT_EQ(loaded.user_kg, d.user_kg);
}

TEST(SerializeTest, RoundTripWithUserKg) {
  auto data = GenerateSynthetic(SynthDisGeNetConfig());
  Rng rng(9);
  Dataset d = NewUserSplit(data.raw, 0.2, rng);
  ASSERT_FALSE(d.user_kg.empty());
  const std::string dir = ::testing::TempDir() + "/roundtrip_userkg";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(TrySaveDataset(d, dir).ok());
  Dataset loaded;
  ASSERT_TRUE(TryLoadDataset(dir, &loaded).ok());
  EXPECT_EQ(loaded.user_kg, d.user_kg);
}

// A meta.txt whose sizes the graph's u32 node ids or u16 relation ids
// cannot hold is a Status naming the file, returned before anything is
// sized from those numbers; at the bounds the meta line passes and the load
// stops at the missing train.txt. The 2^32 directed-edge bound needs over
// 2^31 input rows and is not exercised here.
TEST(SerializeTest, MetaSizesBeyondTheGraphIdsAreRejected) {
  auto load = [](const std::string& sizes) {
    InMemoryFileSystem fs;
    EXPECT_TRUE(fs.MakeDirs("/d").ok());
    EXPECT_TRUE(
        fs.WriteFile("/d/meta.txt", "# header\nbig 0 " + sizes + "\n").ok());
    Dataset d;
    return TryLoadDataset("/d", &d, &fs);
  };
  for (const std::string sizes :
       {"4294967294 1 1 1", "1 1 4294967294 1", "2147483648 1 2147483647 1",
        "9223372036854775807 1 9223372036854775807 1", "1 1 1 32767",
        "1 1 1 9223372036854775807"}) {
    const Status st = load(sizes);
    ASSERT_FALSE(st.ok()) << sizes;
    EXPECT_EQ(st.message().rfind("/d/meta.txt: ", 0), 0u) << st.message();
  }
  for (const std::string sizes : {"4294967293 1 1 1", "1 1 1 32766"}) {
    const Status st = load(sizes);
    ASSERT_FALSE(st.ok()) << sizes;
    EXPECT_NE(st.message().find("train.txt"), std::string::npos)
        << st.message();
  }
}

}  // namespace
}  // namespace kucnet
