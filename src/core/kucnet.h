#ifndef KUCNET_CORE_KUCNET_H_
#define KUCNET_CORE_KUCNET_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "graph/compgraph.h"
#include "ppr/ppr.h"
#include "tensor/adam.h"
#include "tensor/parameter.h"
#include "tensor/tape.h"
#include "train/model.h"
#include "train/negative_sampler.h"

/// \file
/// KUCNet: the Knowledge-enhanced User-Centric subgraph Network (Sec. IV).
///
/// For each user, a pruned user-centric computation graph (Alg. 1) is built
/// over the CKG; L layers of attention-weighted relational message passing
/// (Eq. 5-6) propagate a representation from the user to every reachable
/// node; a linear readout (Eq. 7) scores every candidate item at once
/// (Proposition 1). No node embeddings exist, so the model is inductive:
/// new items and new users are scored through the structure around them.

namespace kucnet {

/// The activation delta of Eq. (5).
enum class KucnetActivation { kIdentity, kTanh, kRelu };

/// Hyper-parameters (paper ranges in Sec. V-A3).
struct KucnetOptions {
  int64_t hidden_dim = 32;      ///< d
  int64_t attention_dim = 5;    ///< d_alpha
  int32_t depth = 3;            ///< L
  int64_t sample_k = 30;        ///< K (0 = no pruning)
  PruneMode prune = PruneMode::kPpr;
  bool use_attention = true;    ///< false = KUCNet-w.o.-Attn (Table IX)
  /// When false, the attention logit uses only the relation embedding (no
  /// W_as h_src term) — RED-GNN-style relation-conditioned attention.
  bool attention_on_source = true;
  KucnetActivation activation = KucnetActivation::kRelu;
  real_t learning_rate = 5e-3;
  real_t weight_decay = 1e-5;
  real_t dropout = 0.0;
  /// Positive pairs drawn per user per epoch (each with one negative).
  int64_t positives_per_user = 4;
  /// Users per optimizer step.
  int64_t users_per_step = 8;
  /// Hide the sampled positive (u, i) edges while training on them, so the
  /// model cannot shortcut through the edge it is asked to predict.
  bool exclude_target_edges = true;
  uint64_t seed = 13;
};

/// Everything a forward pass produces.
struct KucnetForward {
  UserCompGraph graph;
  std::vector<double> item_scores;  ///< size num_items; 0 if unreachable
  /// attention[l][e]: alpha of edge e of graph.layers[l], in [0, 1]; 1.0
  /// for every edge without attention (KUCNet-w.o.-Attn). Read by the
  /// explanation tooling (core/explain.h).
  std::vector<std::vector<double>> attention;
};

/// One unit of a batched forward (Kucnet::TryForwardMany): the user, the
/// per-request cancellation context, and the caller-owned in/out slot.
struct KucnetForwardWork {
  int64_t user = 0;
  const ExecContext* ctx = nullptr;  ///< null = unbounded (no deadline/fault)
  KucnetForward* out = nullptr;      ///< owned by the caller, never null
  Status status;                     ///< per-user result, set by the call
};

/// The KUCNet model (also covers the paper's ablation variants via options;
/// see Sec. V-G and Table IX).
class Kucnet : public RankModel {
 public:
  /// `ppr` may be null unless options.prune == kPpr. All pointers must
  /// outlive the model, the graph `ckg` refers to included.
  Kucnet(const Dataset* dataset, GraphRef ckg, const PprTable* ppr,
         KucnetOptions options);

  std::string name() const override;
  int64_t ParamCount() const override;

  /// One BPR epoch. Users are processed in batches of
  /// `options.users_per_step`: each batch runs its per-user forward/backward
  /// passes concurrently on the global thread pool (gradients deferred to
  /// per-tape buffers), then the buffers are flushed in a fixed order and one
  /// optimizer step is taken. Per-user randomness is derived from an epoch
  /// salt plus the user id, so the result is bitwise identical at any
  /// KUCNET_NUM_THREADS setting.
  double TrainEpoch(Rng& rng) override;
  std::vector<double> ScoreItems(int64_t user) const override;

  /// Full forward pass on the user's pruned graph, with per-edge attention
  /// weights: the serving layer's full-quality tier, and (with an unbounded
  /// `ExecContext()`) the forward the explanation tooling and Fig. 6 read.
  /// Hits the `ctx` checkpoint at each stage boundary: "ppr" before the
  /// pruning scores are fetched, "subgraph" per expanded head node during
  /// graph construction, and "forward" before each message-passing layer.
  /// On cancellation `*out` is reset and the checkpoint's status returned —
  /// partial work is abandoned, never half-filled into `out`.
  Status TryForward(int64_t user, const ExecContext& ctx,
                    KucnetForward* out) const;

  /// OK iff the model can build `user`'s graph: a user node of its CKG and,
  /// under PPR pruning, a row of its PPR table. Otherwise an error naming
  /// the user and the range; every Try* forward checks this first.
  Status ValidateUser(int64_t user) const;

  /// First half of TryForward: resets `*out` and builds the user's pruned
  /// computation graph into `out->graph` (stages "ppr" and "subgraph"). The
  /// serving pipeline runs this per-request so extraction overlaps with
  /// other users' batched forwards.
  Status TryExtractGraph(int64_t user, const ExecContext& ctx,
                         KucnetForward* out) const;

  /// Second half of TryForward: message passing, readout, and per-edge
  /// attention over the graph already in `inout->graph` (stage "forward"
  /// before each layer). On cancellation `*inout` is reset — graph included
  /// — and the checkpoint's status returned. TryForward is exactly
  /// TryExtractGraph followed by TryForwardOnGraph; splitting a call never
  /// changes the result bitwise.
  Status TryForwardOnGraph(const ExecContext& ctx, KucnetForward* inout) const;

  /// Batched full-tier forwards: runs every work item concurrently on the
  /// global thread pool (the same batching path TrainEpoch uses for
  /// training). When `graphs_extracted` is true each item's `out->graph`
  /// was already built by TryExtractGraph and only the forward half runs;
  /// otherwise each item runs the complete TryForward. Items share no
  /// mutable state (per-user seeded RNGs), so results are bitwise identical
  /// to issuing the same calls sequentially, at any thread count — enforced
  /// by diff_fuzz (`serve` and `kucnet` subsystems).
  void TryForwardMany(std::vector<KucnetForwardWork>* work,
                      bool graphs_extracted) const;

  /// Scores a single (user, item) pair on its *individual* U-I computation
  /// graph C_{u,i|L} — the naive KUCNet-UI costing of Fig. 6 — with the same
  /// inference forward as TryForwardOnGraph. Returns the score and the
  /// number of edges computed on.
  std::pair<double, int64_t> ScorePairOnUiGraph(int64_t user,
                                                int64_t item) const;

  /// Builds the BPR loss for explicit (positive, negative) item pairs on the
  /// user's deterministic pruned graph (no dropout, no target-edge
  /// exclusion). Used by the gradient-check tests and custom training loops.
  /// Returns an invalid Var when no positive is reachable.
  Var BuildLoss(Tape& tape, int64_t user, const std::vector<int64_t>& pos,
                const std::vector<int64_t>& neg);

  /// The pruned graph BuildLoss scores `user` on: deterministic for a given
  /// model, built without dropout or target-edge exclusion.
  UserCompGraph LossGraph(int64_t user) const;

  const KucnetOptions& options() const { return options_; }

  /// All trainable parameters (layer weights, attention, relation
  /// embeddings, readout). `TrySaveParameters(Params(), path)` writes the
  /// weights (tensor/serialize.h) and `TryLoadParameters` restores them into
  /// a model with identical options.
  std::vector<Parameter*> Params();

  /// Training-snapshot hooks: KUCNet's full training state is its
  /// parameters plus the Adam moments, so crash-safe checkpoint/resume and
  /// divergence rollback work out of the box (see train/trainer.h).
  std::vector<Parameter*> TrainableParams() override { return Params(); }
  Adam* MutableOptimizer() override { return &optimizer_; }

 private:
  struct LayerParams {
    Parameter w;        ///< d x d  (W^l)
    Parameter rel_emb;  ///< (num_relations + 1) x d  (h_r^l, + self-loop)
    Parameter attn_s;   ///< d x d_alpha  (W^l_{alpha s})
    Parameter attn_r;   ///< d x d_alpha  (W^l_{alpha r})
    Parameter attn_v;   ///< d_alpha x 1  (w^l_alpha)
  };

  /// Training forward: runs L layers of Eq. (5)-(6) over `graph` on `tape`
  /// and returns the final layer representations (nodes x d). Per layer it
  /// gathers each distinct (source, relation) message's inputs once, runs
  /// W^l and the attention chain over those message rows, and sums them
  /// into destinations in edge order with Tape::GatherSegmentSum, so the
  /// forward equals a per-edge one bitwise in deterministic kernel mode.
  /// Applies dropout after each layer's activation, drawing from `*dropout`;
  /// null means no dropout.
  Var RunMessagePassing(Tape& tape, const UserCompGraph& graph,
                        Rng* dropout) const;

  /// Inference forward of Eq. (5)-(7) over `graph`, without a tape. Per
  /// layer it computes each distinct (source, relation) message once — one
  /// MatMul against W^l, attention logits from a per-node and a
  /// per-relation table — and sums messages into destinations in edge
  /// order, so every output keeps the per-edge accumulation chain and, in
  /// deterministic kernel mode, equals testing::OracleKucnetScores bitwise.
  /// Checks `ctx` (stage "forward") before each layer. Sets `*node_scores`
  /// to the Eq. (7) score of every final-layer node (nodes x 1) and
  /// `*attention` to each layer's per-edge alpha.
  Status TryInfer(const UserCompGraph& graph, const ExecContext& ctx,
                  Matrix* node_scores,
                  std::vector<std::vector<double>>* attention) const;

  /// Builds the pruned computation graph for a user.
  UserCompGraph BuildGraph(int64_t user, Rng* rng,
                           const std::vector<ExcludedPair>& excluded) const;

  /// One user's training contribution: samples positives/negatives from
  /// `rng`, builds the graph, records forward + backward on `tape`, and
  /// returns the (unnormalized) loss. `*pairs_out` is the number of scored
  /// pairs (0 = nothing reachable; tape untouched by Backward). Thread-safe
  /// when `tape` is in deferred-gradient mode and `rng` is private to the
  /// caller.
  double TrainUser(int64_t user, Rng& rng, Tape& tape, int64_t* pairs_out);

  Var Activate(Tape& tape, Var x) const;

  const Dataset* dataset_;
  const Ckg* ckg_;
  const PprTable* ppr_;
  KucnetOptions options_;
  CompGraphBuilder builder_;
  NegativeSampler sampler_;
  std::vector<std::vector<int64_t>> train_items_;

  std::vector<LayerParams> layers_;
  Parameter attn_bias_;  ///< 1 x d_alpha (b_alpha, shared across layers)
  Parameter readout_;    ///< d x 1 (w of Eq. 7)
  Adam optimizer_;
};

}  // namespace kucnet

#endif  // KUCNET_CORE_KUCNET_H_
