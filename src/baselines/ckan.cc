#include "baselines/ckan.h"

#include <algorithm>

#include "util/logging.h"

namespace kucnet {

namespace {

Adam MakeAdam(const EmbeddingModelOptions& options) {
  AdamOptions a;
  a.learning_rate = options.learning_rate;
  a.weight_decay = options.weight_decay;
  return Adam(a);
}

}  // namespace

Ckan::Ckan(const Dataset* dataset, EmbeddingModelOptions options,
           int64_t max_user_set)
    : dataset_(dataset),
      options_(options),
      sampler_(*dataset),
      item_neighbors_(ItemKgNeighborsWithRelations(*dataset)),
      user_sets_(dataset->num_users),
      user_emb_("user_emb", Matrix()),
      entity_emb_("entity_emb", Matrix()),
      optimizer_(MakeAdam(options)) {
  Rng rng(options.seed);
  const real_t scale = 0.1;
  user_emb_ = Parameter(
      "user_emb",
      Matrix::RandomNormal(dataset->num_users, options.dim, scale, rng));
  entity_emb_ = Parameter(
      "entity_emb",
      Matrix::RandomNormal(dataset->num_kg_nodes, options.dim, scale, rng));

  // User ripple seed sets: interacted items plus those items' entities.
  const auto train_items = dataset->TrainItemsByUser();
  for (int64_t u = 0; u < dataset->num_users; ++u) {
    auto& set = user_sets_[u];
    for (const int64_t i : train_items[u]) {
      set.push_back(i);  // the item itself is a KG node
      for (const ItemNeighbor& n : item_neighbors_[i]) {
        set.push_back(n.entity);
      }
    }
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    if (static_cast<int64_t>(set.size()) > max_user_set) {
      rng.Shuffle(set);
      set.resize(max_user_set);
      std::sort(set.begin(), set.end());
    }
  }
}

int64_t Ckan::ParamCount() const {
  return user_emb_.ParamCount() + entity_emb_.ParamCount();
}

Var Ckan::AttentiveSets(Tape& tape, Var anchors,
                        const std::vector<int64_t>& member_entities,
                        const std::vector<int64_t>& seg,
                        int64_t batch) const {
  if (member_entities.empty()) return anchors;
  auto* ee = const_cast<Parameter*>(&entity_emb_);
  Var members = tape.GatherParam(ee, member_entities);
  Var anchor_per_member = tape.Gather(anchors, seg);
  Var logits = tape.RowDot(anchor_per_member, members);
  Var exp_logits = tape.Exp(logits);
  Var denom = tape.SegmentSum(exp_logits, seg, batch);
  // Guard empty segments (no members): denominators only used where edges
  // exist, so gathering back per member is safe.
  Var att = tape.Hadamard(exp_logits,
                          tape.Reciprocal(tape.Gather(denom, seg)));
  Var agg = tape.SegmentSum(tape.RowScale(members, att), seg, batch);
  return tape.Add(anchors, agg);
}

Var Ckan::UserReps(Tape& tape, const std::vector<int64_t>& users) const {
  auto* ue = const_cast<Parameter*>(&user_emb_);
  Var anchors = tape.GatherParam(ue, users);
  std::vector<int64_t> members, seg;
  for (size_t k = 0; k < users.size(); ++k) {
    for (const int64_t e : user_sets_[users[k]]) {
      members.push_back(e);
      seg.push_back(static_cast<int64_t>(k));
    }
  }
  return AttentiveSets(tape, anchors, members, seg,
                       static_cast<int64_t>(users.size()));
}

Var Ckan::ItemReps(Tape& tape, const std::vector<int64_t>& items) const {
  auto* ee = const_cast<Parameter*>(&entity_emb_);
  Var anchors = tape.GatherParam(ee, items);
  std::vector<int64_t> members, seg;
  for (size_t k = 0; k < items.size(); ++k) {
    for (const ItemNeighbor& n : item_neighbors_[items[k]]) {
      members.push_back(n.entity);
      seg.push_back(static_cast<int64_t>(k));
    }
  }
  return AttentiveSets(tape, anchors, members, seg,
                       static_cast<int64_t>(items.size()));
}

double Ckan::TrainEpoch(Rng& rng) {
  std::vector<std::array<int64_t, 2>> pairs = dataset_->train;
  rng.Shuffle(pairs);
  const std::vector<Parameter*> params = {&user_emb_, &entity_emb_};
  double total_loss = 0.0;
  int64_t total = 0;
  for (size_t begin = 0; begin < pairs.size(); begin += options_.batch_size) {
    const size_t end = std::min(pairs.size(), begin + options_.batch_size);
    std::vector<int64_t> users, pos, neg;
    for (size_t k = begin; k < end; ++k) {
      users.push_back(pairs[k][0]);
      pos.push_back(pairs[k][1]);
      neg.push_back(sampler_.Sample(pairs[k][0], rng));
    }
    Tape tape;
    Var u = UserReps(tape, users);
    Var loss = tape.BprLoss(tape.RowDot(u, ItemReps(tape, pos)),
                            tape.RowDot(u, ItemReps(tape, neg)));
    total_loss += tape.value(loss).at(0, 0);
    total += static_cast<int64_t>(users.size());
    tape.Backward(loss);
    optimizer_.Step(params);
  }
  return total > 0 ? total_loss / static_cast<double>(total) : 0.0;
}

std::vector<double> Ckan::ScoreItems(int64_t user) const {
  Tape tape;
  Var u = UserReps(tape, {user});
  std::vector<int64_t> all_items(dataset_->num_items);
  for (int64_t i = 0; i < dataset_->num_items; ++i) all_items[i] = i;
  Var items = ItemReps(tape, all_items);
  Var u_rows = tape.Gather(u, std::vector<int64_t>(dataset_->num_items, 0));
  Var s = tape.RowDot(items, u_rows);
  const Matrix& values = tape.value(s);
  std::vector<double> scores(dataset_->num_items);
  for (int64_t i = 0; i < dataset_->num_items; ++i) scores[i] = values.at(i, 0);
  return scores;
}

}  // namespace kucnet
