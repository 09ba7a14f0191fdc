#ifndef KUCNET_BASELINES_CKAN_H_
#define KUCNET_BASELINES_CKAN_H_

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
/// CKAN (Wang et al. 2020), simplified: users and items are represented by
/// knowledge-aware attentive aggregations of their ripple (entity) sets —
/// the user side seeds from the entities of interacted items, the item side
/// from the item's own KG neighborhood. Attention keys are the seed
/// embedding; one propagation hop each (the paper uses 1-3).

namespace kucnet {

/// CKAN-style attentive ripple aggregation; score = user_rep . item_rep.
class Ckan : public RankModel {
 public:
  Ckan(const Dataset* dataset, EmbeddingModelOptions options,
       int64_t max_user_set = 64);

  std::string name() const override { return "CKAN"; }
  int64_t ParamCount() const override;
  double TrainEpoch(Rng& rng) override;
  std::vector<double> ScoreItems(int64_t user) const override;

 private:
  Var UserReps(Tape& tape, const std::vector<int64_t>& users) const;
  Var ItemReps(Tape& tape, const std::vector<int64_t>& items) const;

  /// Attentive aggregation of flattened (anchor, member) sets: for segment
  /// k, rep_k = anchor_k + sum softmax(anchor . member) member.
  Var AttentiveSets(Tape& tape, Var anchors,
                    const std::vector<int64_t>& member_entities,
                    const std::vector<int64_t>& seg, int64_t batch) const;

  const Dataset* dataset_;
  EmbeddingModelOptions options_;
  NegativeSampler sampler_;
  std::vector<std::vector<ItemNeighbor>> item_neighbors_;
  std::vector<std::vector<int64_t>> user_sets_;  ///< entity ids per user

  Parameter user_emb_;    ///< U x d (seed for users without interactions)
  Parameter entity_emb_;  ///< num_kg_nodes x d
  Adam optimizer_;
};

}  // namespace kucnet

#endif  // KUCNET_BASELINES_CKAN_H_
