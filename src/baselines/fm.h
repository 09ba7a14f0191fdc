#ifndef KUCNET_BASELINES_FM_H_
#define KUCNET_BASELINES_FM_H_

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
/// FM (Rendle 2011) and NFM (He & Chua 2017) baselines.
///
/// Each (user, item) pair is a sparse feature vector: the user id, the item
/// id, and the item's one-hop KG entities (the "contextual information" FM
/// exploits; this is also what gives FM/NFM their faint-but-nonzero
/// new-item scores in Table IV). FM scores with second-order factorized
/// interactions; NFM feeds the bilinear-pooled vector through an MLP.

namespace kucnet {

/// Shared implementation of FM and NFM (NFM = FM + hidden MLP on the
/// bilinear interaction vector).
class FactorizationModel : public RankModel {
 public:
  enum class Kind { kFm, kNfm };

  FactorizationModel(const Dataset* dataset, Kind kind,
                     EmbeddingModelOptions options, int64_t mlp_hidden = 32);

  std::string name() const override {
    return kind_ == Kind::kFm ? "FM" : "NFM";
  }
  int64_t ParamCount() const override;
  double TrainEpoch(Rng& rng) override;
  std::vector<double> ScoreItems(int64_t user) const override;

 private:
  /// Scores a batch of examples given flattened feature lists.
  Var ScoreBatch(Tape& tape, const std::vector<int64_t>& feat_ids,
                 const std::vector<int64_t>& seg, int64_t batch) const;

  /// Feature ids of pair (user, item): user, item, item's KG entities.
  void AppendFeatures(int64_t user, int64_t item,
                      std::vector<int64_t>& feat_ids,
                      std::vector<int64_t>& seg, int64_t example) const;

  const Dataset* dataset_;
  Kind kind_;
  EmbeddingModelOptions options_;
  int64_t mlp_hidden_;
  NegativeSampler sampler_;
  std::vector<std::vector<int64_t>> item_entities_;  ///< KG-local ids

  int64_t num_features_;
  Parameter feat_emb_;     ///< num_features x d
  Parameter feat_linear_;  ///< num_features x 1
  Parameter mlp_w1_;       ///< d x mlp_hidden (NFM only)
  Parameter mlp_b1_;       ///< 1 x mlp_hidden (NFM only)
  Parameter mlp_w2_;       ///< mlp_hidden x 1 (NFM only)
  Adam optimizer_;
};

}  // namespace kucnet

#endif  // KUCNET_BASELINES_FM_H_
