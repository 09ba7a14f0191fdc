#ifndef KUCNET_BASELINES_KGIN_H_
#define KUCNET_BASELINES_KGIN_H_

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
/// KGIN (Wang et al. 2021), simplified ("KGIN-lite"): user intents as
/// learned latent vectors attentively combined per user, and item
/// representations aggregated from the item's relational KG neighborhood.
/// The KG-side aggregation is the mechanism that lets KGIN score *new*
/// items far better than pure-embedding baselines (Table IV), and it is
/// preserved here; the paper's distance-aware path weighting is dropped
/// (see DESIGN.md).

namespace kucnet {

/// KGIN-lite. score(u, i) = (u + intent mix) . (e_i + KG aggregation).
class KginLite : public RankModel {
 public:
  KginLite(const Dataset* dataset, EmbeddingModelOptions options,
           int64_t num_intents = 4);

  std::string name() const override { return "KGIN"; }
  int64_t ParamCount() const override;
  double TrainEpoch(Rng& rng) override;
  std::vector<double> ScoreItems(int64_t user) const override;

 private:
  /// Representations of the given users (rows) on the tape.
  Var UserReps(Tape& tape, const std::vector<int64_t>& users) const;

  /// Representations of the given items (rows) on the tape.
  Var ItemReps(Tape& tape, const std::vector<int64_t>& items) const;

  const Dataset* dataset_;
  EmbeddingModelOptions options_;
  int64_t num_intents_;
  NegativeSampler sampler_;
  std::vector<std::vector<ItemNeighbor>> item_neighbors_;

  Parameter user_emb_;    ///< U x d
  Parameter entity_emb_;  ///< num_kg_nodes x d (items first)
  Parameter rel_emb_;     ///< num_kg_relations x d
  Parameter intent_emb_;  ///< num_intents x d
  Adam optimizer_;
};

}  // namespace kucnet

#endif  // KUCNET_BASELINES_KGIN_H_
