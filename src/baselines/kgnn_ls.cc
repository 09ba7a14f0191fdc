#include "baselines/kgnn_ls.h"

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

KgnnLs::KgnnLs(const Dataset* dataset, EmbeddingModelOptions options)
    : dataset_(dataset),
      options_(options),
      sampler_(*dataset),
      item_neighbors_(ItemKgNeighborsWithRelations(*dataset)),
      user_emb_("user_emb", Matrix()),
      entity_emb_("entity_emb", Matrix()),
      rel_emb_("rel_emb", Matrix()),
      w_("w", Matrix()),
      optimizer_(MakeAdam(options)) {
  Rng rng(options.seed);
  const real_t scale = 0.1;
  user_emb_ = Parameter(
      "user_emb",
      Matrix::RandomNormal(dataset->num_users, options.dim, scale, rng));
  entity_emb_ = Parameter(
      "entity_emb",
      Matrix::RandomNormal(dataset->num_kg_nodes, options.dim, scale, rng));
  rel_emb_ = Parameter(
      "rel_emb",
      Matrix::RandomNormal(std::max<int64_t>(1, dataset->num_kg_relations),
                           options.dim, scale, rng));
  w_ = Parameter("w", Matrix::GlorotUniform(options.dim, options.dim, rng));
}

int64_t KgnnLs::ParamCount() const {
  return user_emb_.ParamCount() + entity_emb_.ParamCount() +
         rel_emb_.ParamCount() + w_.ParamCount();
}

Var KgnnLs::PairItemReps(Tape& tape, const std::vector<int64_t>& users,
                         const std::vector<int64_t>& items) const {
  KUC_CHECK_EQ(users.size(), items.size());
  auto* ue = const_cast<Parameter*>(&user_emb_);
  auto* ee = const_cast<Parameter*>(&entity_emb_);
  auto* re = const_cast<Parameter*>(&rel_emb_);
  auto* w = const_cast<Parameter*>(&w_);

  std::vector<int64_t> entities, rels, seg, edge_user;
  for (size_t k = 0; k < items.size(); ++k) {
    for (const ItemNeighbor& n : item_neighbors_[items[k]]) {
      entities.push_back(n.entity);
      rels.push_back(n.rel);
      seg.push_back(static_cast<int64_t>(k));
      edge_user.push_back(users[k]);
    }
  }
  const int64_t batch = static_cast<int64_t>(items.size());
  Var own = tape.GatherParam(ee, items);
  if (entities.empty()) {
    return tape.Tanh(tape.MatMul(own, tape.Param(w)));
  }
  // Per-edge user-specific relation score s = sigmoid(u . r).
  Var u_edge = tape.GatherParam(ue, edge_user);
  Var r_edge = tape.GatherParam(re, rels);
  Var s = tape.Sigmoid(tape.RowDot(u_edge, r_edge));
  Var weighted = tape.RowScale(tape.GatherParam(ee, entities), s);
  Var numer = tape.SegmentSum(weighted, seg, batch);
  // Normalize by the total relation weight per item (+eps to avoid 0/0 for
  // items whose every edge weight underflows; sigmoid > 0 so safe).
  Var denom = tape.SegmentSum(s, seg, batch);
  Var eps = tape.Constant(Matrix::Filled(batch, 1, 1e-8));
  Var agg = tape.RowScale(numer, tape.Reciprocal(tape.Add(denom, eps)));
  return tape.Tanh(tape.MatMul(tape.Add(own, agg), tape.Param(w)));
}

double KgnnLs::TrainEpoch(Rng& rng) {
  std::vector<std::array<int64_t, 2>> pairs = dataset_->train;
  rng.Shuffle(pairs);
  const std::vector<Parameter*> params = {&user_emb_, &entity_emb_, &rel_emb_,
                                          &w_};
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
    Var u = tape.GatherParam(&user_emb_, users);
    Var pos_rep = PairItemReps(tape, users, pos);
    Var neg_rep = PairItemReps(tape, users, neg);
    Var loss = tape.BprLoss(tape.RowDot(u, pos_rep), tape.RowDot(u, neg_rep));
    total_loss += tape.value(loss).at(0, 0);
    total += static_cast<int64_t>(users.size());
    tape.Backward(loss);
    optimizer_.Step(params);
  }
  return total > 0 ? total_loss / static_cast<double>(total) : 0.0;
}

std::vector<double> KgnnLs::ScoreItems(int64_t user) const {
  std::vector<int64_t> users(dataset_->num_items, user);
  std::vector<int64_t> items(dataset_->num_items);
  for (int64_t i = 0; i < dataset_->num_items; ++i) items[i] = i;
  Tape tape;
  Var reps = PairItemReps(tape, users, items);
  Var u = tape.GatherParam(const_cast<Parameter*>(&user_emb_), users);
  Var s = tape.RowDot(u, reps);
  const Matrix& values = tape.value(s);
  std::vector<double> scores(dataset_->num_items);
  for (int64_t i = 0; i < dataset_->num_items; ++i) scores[i] = values.at(i, 0);
  return scores;
}

}  // namespace kucnet
