#include "baselines/kgin.h"

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

KginLite::KginLite(const Dataset* dataset, EmbeddingModelOptions options,
                   int64_t num_intents)
    : dataset_(dataset),
      options_(options),
      num_intents_(num_intents),
      sampler_(*dataset),
      item_neighbors_(ItemKgNeighborsWithRelations(*dataset)),
      user_emb_("user_emb", Matrix()),
      entity_emb_("entity_emb", Matrix()),
      rel_emb_("rel_emb", Matrix()),
      intent_emb_("intent_emb", Matrix()),
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
  intent_emb_ = Parameter(
      "intent_emb", Matrix::RandomNormal(num_intents, options.dim, scale, rng));
}

int64_t KginLite::ParamCount() const {
  return user_emb_.ParamCount() + entity_emb_.ParamCount() +
         rel_emb_.ParamCount() + intent_emb_.ParamCount();
}

Var KginLite::UserReps(Tape& tape, const std::vector<int64_t>& users) const {
  auto* ue = const_cast<Parameter*>(&user_emb_);
  auto* ie = const_cast<Parameter*>(&intent_emb_);
  Var u = tape.GatherParam(ue, users);
  // Intent attention: a_{u,p} = softmax_p(u . e_p); rep = u + sum_p a e_p.
  Var intents = tape.Param(ie);  // P x d
  // logits: users x P via matmul with intents^T — use MatMul(u, intents^T):
  // build intents^T by gathering? MatMul supports (B x d) * (d x P) so we
  // need the transpose; express as MatMul(u, T) where T is a transposed
  // *view* of the parameter. Tape has no transpose op, so instead compute
  // per-intent columns: logit_p = RowDot(u, broadcast e_p).
  const int64_t batch = static_cast<int64_t>(users.size());
  std::vector<Var> weighted(num_intents_);
  std::vector<Var> exp_logits(num_intents_);
  Var denom;
  for (int64_t p = 0; p < num_intents_; ++p) {
    Var e_p = tape.Gather(intents, std::vector<int64_t>(batch, p));
    exp_logits[p] = tape.Exp(tape.RowDot(u, e_p));
    denom = p == 0 ? exp_logits[p] : tape.Add(denom, exp_logits[p]);
    weighted[p] = e_p;
  }
  Var rep = u;
  Var inv_denom = tape.Reciprocal(denom);
  for (int64_t p = 0; p < num_intents_; ++p) {
    Var a = tape.Hadamard(exp_logits[p], inv_denom);
    rep = tape.Add(rep, tape.RowScale(weighted[p], a));
  }
  return rep;
}

Var KginLite::ItemReps(Tape& tape, const std::vector<int64_t>& items) const {
  auto* ee = const_cast<Parameter*>(&entity_emb_);
  auto* re = const_cast<Parameter*>(&rel_emb_);
  // Flatten the KG neighborhoods of the requested items.
  std::vector<int64_t> entities, rels, seg;
  Matrix norm(0, 0);
  {
    std::vector<real_t> inv_count;
    for (size_t k = 0; k < items.size(); ++k) {
      const auto& neighbors = item_neighbors_[items[k]];
      for (const ItemNeighbor& n : neighbors) {
        entities.push_back(n.entity);
        rels.push_back(n.rel);
        seg.push_back(static_cast<int64_t>(k));
        inv_count.push_back(1.0 /
                            static_cast<real_t>(neighbors.size()));
      }
    }
    norm = Matrix(static_cast<int64_t>(inv_count.size()), 1);
    for (size_t e = 0; e < inv_count.size(); ++e) {
      norm.at(static_cast<int64_t>(e), 0) = inv_count[e];
    }
  }
  Var own = tape.GatherParam(ee, items);
  if (entities.empty()) return own;
  // Relational aggregation: mean over (e + r) of the neighborhood.
  Var msg = tape.Add(tape.GatherParam(ee, entities),
                     tape.GatherParam(re, rels));
  Var agg = tape.SegmentSum(tape.RowScale(msg, tape.Constant(norm)), seg,
                            static_cast<int64_t>(items.size()));
  return tape.Add(own, agg);
}

double KginLite::TrainEpoch(Rng& rng) {
  std::vector<std::array<int64_t, 2>> pairs = dataset_->train;
  rng.Shuffle(pairs);
  const std::vector<Parameter*> params = {&user_emb_, &entity_emb_, &rel_emb_,
                                          &intent_emb_};
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

std::vector<double> KginLite::ScoreItems(int64_t user) const {
  Tape tape;
  Var u = UserReps(tape, {user});
  std::vector<int64_t> all_items(dataset_->num_items);
  for (int64_t i = 0; i < dataset_->num_items; ++i) all_items[i] = i;
  Var items = ItemReps(tape, all_items);
  // scores = items * u^T: gather u per item row then RowDot.
  Var u_rows =
      tape.Gather(u, std::vector<int64_t>(dataset_->num_items, 0));
  Var s = tape.RowDot(items, u_rows);
  const Matrix& values = tape.value(s);
  std::vector<double> scores(dataset_->num_items);
  for (int64_t i = 0; i < dataset_->num_items; ++i) scores[i] = values.at(i, 0);
  return scores;
}

}  // namespace kucnet
