#ifndef KUCNET_BASELINES_KGNN_LS_H_
#define KUCNET_BASELINES_KGNN_LS_H_

#include <string>
#include <vector>

#include "baselines/common.h"
#include "baselines/mf.h"
#include "data/dataset.h"
#include "tensor/adam.h"
#include "tensor/parameter.h"
#include "tensor/tape.h"
#include "train/model.h"
#include "train/negative_sampler.h"

/// \file
/// KGNN-LS (Wang et al. 2019), simplified: user-specific relation scoring
/// s_u(r) = sigmoid(u . r) weights the item's KG neighborhood; the weighted
/// neighborhood average is combined with the item embedding and transformed.
/// The label-smoothness regularizer is omitted (a generalization aid, not
/// the scoring mechanism; see DESIGN.md).

namespace kucnet {

/// KGNN-LS-style user-conditioned item GNN; score(u, i) = u . h_i(u).
class KgnnLs : public RankModel {
 public:
  KgnnLs(const Dataset* dataset, EmbeddingModelOptions options);

  std::string name() const override { return "KGNN-LS"; }
  int64_t ParamCount() const override;
  double TrainEpoch(Rng& rng) override;
  std::vector<double> ScoreItems(int64_t user) const override;

 private:
  /// User-conditioned representations of (users[k], items[k]) pairs.
  Var PairItemReps(Tape& tape, const std::vector<int64_t>& users,
                   const std::vector<int64_t>& items) const;

  const Dataset* dataset_;
  EmbeddingModelOptions options_;
  NegativeSampler sampler_;
  std::vector<std::vector<ItemNeighbor>> item_neighbors_;

  Parameter user_emb_;    ///< U x d
  Parameter entity_emb_;  ///< num_kg_nodes x d
  Parameter rel_emb_;     ///< num_kg_relations x d
  Parameter w_;           ///< d x d
  Adam optimizer_;
};

}  // namespace kucnet

#endif  // KUCNET_BASELINES_KGNN_LS_H_
