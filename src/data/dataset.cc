#include "data/dataset.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "util/logging.h"

namespace kucnet {

namespace {

/// Deduplicates (user, item) pairs.
std::vector<std::array<int64_t, 2>> Dedup(
    std::vector<std::array<int64_t, 2>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

Dataset MakeBase(const RawData& raw, SplitKind kind) {
  Dataset d;
  d.name = raw.name;
  d.kind = kind;
  d.num_users = raw.num_users;
  d.num_items = raw.num_items;
  d.num_kg_nodes = raw.num_kg_nodes;
  d.num_kg_relations = raw.num_kg_relations;
  d.kg = raw.kg;
  d.user_kg = raw.user_kg;
  return d;
}

}  // namespace

Ckg Dataset::BuildCkg() const {
  Ckg g;
  const Status built = Ckg::TryBuild(num_users, num_items, num_kg_nodes,
                                     num_kg_relations, train, kg, user_kg, &g);
  KUC_CHECK(built.ok()) << built.message();
  return g;
}

std::vector<std::vector<int64_t>> Dataset::TrainItemsByUser() const {
  std::vector<std::vector<int64_t>> by_user(num_users);
  for (const auto& [u, i] : train) by_user[u].push_back(i);
  for (auto& items : by_user) std::sort(items.begin(), items.end());
  return by_user;
}

std::vector<std::vector<int64_t>> Dataset::TestItemsByUser() const {
  std::vector<std::vector<int64_t>> by_user(num_users);
  for (const auto& [u, i] : test) by_user[u].push_back(i);
  for (auto& items : by_user) std::sort(items.begin(), items.end());
  return by_user;
}

std::vector<int64_t> Dataset::TestUsers() const {
  std::vector<bool> has(num_users, false);
  for (const auto& [u, i] : test) has[u] = true;
  std::vector<int64_t> users;
  for (int64_t u = 0; u < num_users; ++u) {
    if (has[u]) users.push_back(u);
  }
  return users;
}

std::string Dataset::Summary() const {
  std::ostringstream ss;
  ss << name << ": users=" << num_users << " items=" << num_items
     << " train=" << train.size() << " test=" << test.size()
     << " kg_entities=" << num_kg_nodes << " kg_relations="
     << num_kg_relations << " kg_triplets=" << kg.size();
  if (!user_kg.empty()) ss << " user_kg_triplets=" << user_kg.size();
  return ss.str();
}

Dataset TraditionalSplit(const RawData& raw, double test_fraction, Rng& rng) {
  KUC_CHECK_GT(test_fraction, 0.0);
  KUC_CHECK_LT(test_fraction, 1.0);
  Dataset d = MakeBase(raw, SplitKind::kTraditional);
  // Group interactions per user, hold out a fraction of each user's items.
  std::vector<std::vector<int64_t>> by_user(raw.num_users);
  for (const auto& [u, i] : Dedup(raw.interactions)) by_user[u].push_back(i);
  for (int64_t u = 0; u < raw.num_users; ++u) {
    auto& items = by_user[u];
    rng.Shuffle(items);
    const int64_t n_test =
        static_cast<int64_t>(test_fraction * static_cast<double>(items.size()));
    for (size_t k = 0; k < items.size(); ++k) {
      if (static_cast<int64_t>(k) < n_test) {
        d.test.push_back({u, items[k]});
      } else {
        d.train.push_back({u, items[k]});
      }
    }
  }
  // Enforce I_test subset of I_train: drop test rows whose item never
  // appears in training.
  std::unordered_set<int64_t> train_items;
  for (const auto& [u, i] : d.train) train_items.insert(i);
  std::erase_if(d.test, [&](const std::array<int64_t, 2>& p) {
    return train_items.count(p[1]) == 0;
  });
  d.train = Dedup(std::move(d.train));
  d.test = Dedup(std::move(d.test));
  return d;
}

Dataset NewItemSplit(const RawData& raw, double item_fraction, Rng& rng) {
  KUC_CHECK_GT(item_fraction, 0.0);
  KUC_CHECK_LT(item_fraction, 1.0);
  Dataset d = MakeBase(raw, SplitKind::kNewItem);
  const int64_t n_test_items =
      std::max<int64_t>(1, static_cast<int64_t>(item_fraction *
                                                static_cast<double>(raw.num_items)));
  const auto held = rng.SampleWithoutReplacement(raw.num_items, n_test_items);
  std::vector<bool> is_test_item(raw.num_items, false);
  for (const int64_t i : held) is_test_item[i] = true;
  for (const auto& pair : Dedup(raw.interactions)) {
    if (is_test_item[pair[1]]) {
      d.test.push_back(pair);
    } else {
      d.train.push_back(pair);
    }
  }
  return d;
}

Dataset TemporalSplit(const RawData& raw,
                      const std::vector<int64_t>& arrival_order,
                      double train_fraction) {
  KUC_CHECK_GT(train_fraction, 0.0);
  KUC_CHECK_LT(train_fraction, 1.0);
  const int64_t n = static_cast<int64_t>(raw.interactions.size());
  if (!arrival_order.empty()) {
    KUC_CHECK_EQ(static_cast<int64_t>(arrival_order.size()), n);
  }
  Dataset d = MakeBase(raw, SplitKind::kTemporal);
  // Deduplicate by *first arrival* (not by sorting — arrival order is the
  // whole point of this split), then cut the sequence at train_fraction.
  std::unordered_set<uint64_t> seen;
  std::vector<std::array<int64_t, 2>> ordered;
  ordered.reserve(raw.interactions.size());
  for (int64_t k = 0; k < n; ++k) {
    const auto& pair =
        raw.interactions[arrival_order.empty() ? k : arrival_order[k]];
    const uint64_t key = (static_cast<uint64_t>(pair[0]) << 32) |
                         static_cast<uint64_t>(pair[1]);
    if (seen.insert(key).second) ordered.push_back(pair);
  }
  const int64_t n_train = std::max<int64_t>(
      1, static_cast<int64_t>(train_fraction *
                              static_cast<double>(ordered.size())));
  for (size_t k = 0; k < ordered.size(); ++k) {
    if (static_cast<int64_t>(k) < n_train) {
      d.train.push_back(ordered[k]);
    } else {
      d.test.push_back(ordered[k]);
    }
  }
  d.train = Dedup(std::move(d.train));  // sorted like every other split
  return d;
}

Dataset NewUserSplit(const RawData& raw, double user_fraction, Rng& rng) {
  KUC_CHECK_GT(user_fraction, 0.0);
  KUC_CHECK_LT(user_fraction, 1.0);
  Dataset d = MakeBase(raw, SplitKind::kNewUser);
  const int64_t n_test_users =
      std::max<int64_t>(1, static_cast<int64_t>(user_fraction *
                                                static_cast<double>(raw.num_users)));
  const auto held = rng.SampleWithoutReplacement(raw.num_users, n_test_users);
  std::vector<bool> is_test_user(raw.num_users, false);
  for (const int64_t u : held) is_test_user[u] = true;
  for (const auto& pair : Dedup(raw.interactions)) {
    if (is_test_user[pair[0]]) {
      d.test.push_back(pair);
    } else {
      d.train.push_back(pair);
    }
  }
  return d;
}

}  // namespace kucnet
