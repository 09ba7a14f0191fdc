// The paper's Figure 1 scenario, end to end: newly released movies have no
// interaction history, but the knowledge graph connects them (through
// directors, actors, genres) to movies users already watched. A pure
// collaborative-filtering model (MF) is blind to them; KUCNet recommends
// them through KG paths.
//
// Build & run:  ./build/examples/new_item_movies

#include <cstdio>

#include "baselines/mf.h"
#include "core/kucnet.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "train/trainer.h"

int main() {
  using namespace kucnet;

  // A movie-like CKG: topics play the role of genres/franchises; entities
  // play directors, actors, studios.
  SyntheticConfig config;
  config.name = "movies";
  config.num_users = 150;
  config.num_items = 400;
  config.num_topics = 8;
  config.interactions_per_user = 12;
  config.entities_per_topic = 8;  // per-genre directors/actors
  config.attributes_per_item = 3;
  config.kg_noise = 0.1;
  const RawData raw = GenerateSynthetic(config).raw;

  // "New releases": one fifth of the movies lose every interaction. They
  // exist only in the KG, exactly like Sherlock Holmes 2 / Avengers in the
  // paper's Fig. 1.
  Rng rng(11);
  const Dataset dataset = NewItemSplit(raw, 0.2, rng);
  std::printf("dataset: %s\n", dataset.Summary().c_str());
  std::printf("(test items are new releases: zero training interactions)\n\n");

  const Ckg ckg = dataset.BuildCkg();
  const PprTable ppr = PprTable::Compute(ckg);

  TrainOptions train_options;
  train_options.epochs = 10;

  // Collaborative filtering only: new movies have untrained embeddings.
  Mf mf(&dataset, EmbeddingModelOptions{});
  const TrainResult mf_result = TrainModel(mf, dataset, train_options);

  // KUCNet: scores new movies through their KG connections.
  KucnetOptions options;
  options.sample_k = 40;
  Kucnet kucnet(&dataset, &ckg, &ppr, options);
  const TrainResult kucnet_result = TrainModel(kucnet, dataset, train_options);

  std::printf("recommending new releases (recall@20 / ndcg@20):\n");
  std::printf("  MF     : %.4f / %.4f   <- blind to new movies\n",
              mf_result.final_eval.recall, mf_result.final_eval.ndcg);
  std::printf("  KUCNet : %.4f / %.4f   <- reaches them through the KG\n",
              kucnet_result.final_eval.recall, kucnet_result.final_eval.ndcg);

  // Show that the recommended new movies are actually KG-reachable.
  const int64_t user = dataset.TestUsers().front();
  KucnetForward forward;
  const Status status = kucnet.TryForward(user, ExecContext(), &forward);
  if (!status.ok()) {
    std::fprintf(stderr, "forward failed: %s\n", status.message().c_str());
    return 1;
  }
  int64_t reachable = 0;
  const auto test_items = dataset.TestItemsByUser()[user];
  for (const int64_t item : test_items) {
    if (forward.graph.FinalIndexOf(ckg.ItemNode(item)) >= 0) ++reachable;
  }
  std::printf(
      "\nuser %lld: %lld of %zu held-out new movies are inside the pruned "
      "user-centric subgraph (L=%d, K=%lld)\n",
      (long long)user, (long long)reachable, test_items.size(),
      kucnet.options().depth, (long long)kucnet.options().sample_k);
  return 0;
}
