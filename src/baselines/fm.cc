#include "baselines/fm.h"

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

FactorizationModel::FactorizationModel(const Dataset* dataset, Kind kind,
                                       EmbeddingModelOptions options,
                                       int64_t mlp_hidden)
    : dataset_(dataset),
      kind_(kind),
      options_(options),
      mlp_hidden_(mlp_hidden),
      sampler_(*dataset),
      item_entities_(ItemKgNeighbors(*dataset)),
      num_features_(dataset->num_users + dataset->num_kg_nodes),
      feat_emb_("feat_emb", Matrix()),
      feat_linear_("feat_linear", Matrix::Zeros(num_features_, 1)),
      mlp_w1_("mlp_w1", Matrix()),
      mlp_b1_("mlp_b1", Matrix::Zeros(1, mlp_hidden)),
      mlp_w2_("mlp_w2", Matrix()),
      optimizer_(MakeAdam(options)) {
  Rng rng(options.seed);
  feat_emb_ = Parameter(
      "feat_emb", Matrix::RandomNormal(num_features_, options.dim, 0.1, rng));
  mlp_w1_ = Parameter("mlp_w1",
                      Matrix::GlorotUniform(options.dim, mlp_hidden, rng));
  mlp_w2_ = Parameter("mlp_w2", Matrix::GlorotUniform(mlp_hidden, 1, rng));
}

int64_t FactorizationModel::ParamCount() const {
  int64_t total = feat_emb_.ParamCount() + feat_linear_.ParamCount();
  if (kind_ == Kind::kNfm) {
    total += mlp_w1_.ParamCount() + mlp_b1_.ParamCount() +
             mlp_w2_.ParamCount();
  }
  return total;
}

void FactorizationModel::AppendFeatures(int64_t user, int64_t item,
                                        std::vector<int64_t>& feat_ids,
                                        std::vector<int64_t>& seg,
                                        int64_t example) const {
  feat_ids.push_back(user);  // user feature
  seg.push_back(example);
  feat_ids.push_back(dataset_->num_users + item);  // item feature
  seg.push_back(example);
  for (const int64_t e : item_entities_[item]) {
    feat_ids.push_back(dataset_->num_users + e);
    seg.push_back(example);
  }
}

Var FactorizationModel::ScoreBatch(Tape& tape,
                                   const std::vector<int64_t>& feat_ids,
                                   const std::vector<int64_t>& seg,
                                   int64_t batch) const {
  auto* emb = const_cast<Parameter*>(&feat_emb_);
  auto* lin = const_cast<Parameter*>(&feat_linear_);
  Var v = tape.GatherParam(emb, feat_ids);
  Var s = tape.SegmentSum(v, seg, batch);
  Var q = tape.SegmentSum(tape.Square(v), seg, batch);
  // Bilinear interaction vector: 0.5 * (S^2 - Q)  (B x d).
  Var bilinear = tape.ScalarMul(tape.Sub(tape.Hadamard(s, s), q), 0.5);
  Var linear = tape.SegmentSum(tape.GatherParam(lin, feat_ids), seg, batch);
  if (kind_ == Kind::kFm) {
    return tape.Add(tape.RowSum(bilinear), linear);
  }
  // NFM: MLP over the bilinear vector.
  Var hidden = tape.Relu(tape.AddRowBroadcast(
      tape.MatMul(bilinear, tape.Param(const_cast<Parameter*>(&mlp_w1_))),
      tape.Param(const_cast<Parameter*>(&mlp_b1_))));
  Var out = tape.MatMul(hidden, tape.Param(const_cast<Parameter*>(&mlp_w2_)));
  return tape.Add(out, linear);
}

double FactorizationModel::TrainEpoch(Rng& rng) {
  std::vector<std::array<int64_t, 2>> pairs = dataset_->train;
  rng.Shuffle(pairs);
  std::vector<Parameter*> params = {&feat_emb_, &feat_linear_};
  if (kind_ == Kind::kNfm) {
    params.push_back(&mlp_w1_);
    params.push_back(&mlp_b1_);
    params.push_back(&mlp_w2_);
  }
  double total_loss = 0.0;
  int64_t total = 0;
  for (size_t begin = 0; begin < pairs.size(); begin += options_.batch_size) {
    const size_t end = std::min(pairs.size(), begin + options_.batch_size);
    const int64_t batch = static_cast<int64_t>(end - begin);
    std::vector<int64_t> pos_feats, pos_seg, neg_feats, neg_seg;
    for (size_t k = begin; k < end; ++k) {
      const int64_t example = static_cast<int64_t>(k - begin);
      AppendFeatures(pairs[k][0], pairs[k][1], pos_feats, pos_seg, example);
      AppendFeatures(pairs[k][0], sampler_.Sample(pairs[k][0], rng),
                     neg_feats, neg_seg, example);
    }
    Tape tape;
    Var pos = ScoreBatch(tape, pos_feats, pos_seg, batch);
    Var neg = ScoreBatch(tape, neg_feats, neg_seg, batch);
    Var loss = tape.BprLoss(pos, neg);
    total_loss += tape.value(loss).at(0, 0);
    total += batch;
    tape.Backward(loss);
    optimizer_.Step(params);
  }
  return total > 0 ? total_loss / static_cast<double>(total) : 0.0;
}

std::vector<double> FactorizationModel::ScoreItems(int64_t user) const {
  std::vector<int64_t> feat_ids, seg;
  for (int64_t i = 0; i < dataset_->num_items; ++i) {
    AppendFeatures(user, i, feat_ids, seg, i);
  }
  Tape tape;
  Var s = ScoreBatch(tape, feat_ids, seg, dataset_->num_items);
  const Matrix& values = tape.value(s);
  std::vector<double> scores(dataset_->num_items);
  for (int64_t i = 0; i < dataset_->num_items; ++i) scores[i] = values.at(i, 0);
  return scores;
}

}  // namespace kucnet
