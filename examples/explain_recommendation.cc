// Interpretability (paper Sec. V-F / Fig. 7): after training, extract the
// high-attention paths inside the pruned user-centric subgraph that carried
// a recommendation from the user to the recommended item, and print them as
// human-readable chains.
//
// Build & run:  ./build/examples/explain_recommendation

#include <cstdio>

#include "core/explain.h"
#include "core/kucnet.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "train/trainer.h"

int main() {
  using namespace kucnet;

  SyntheticConfig config;
  config.name = "explainable";
  config.num_users = 120;
  config.num_items = 200;
  config.num_topics = 6;
  config.interactions_per_user = 10;
  config.kg_noise = 0.05;
  const RawData raw = GenerateSynthetic(config).raw;
  Rng rng(3);
  const Dataset dataset = TraditionalSplit(raw, 0.2, rng);
  const Ckg ckg = dataset.BuildCkg();
  const PprTable ppr = PprTable::Compute(ckg);

  KucnetOptions options;
  options.sample_k = 20;
  Kucnet model(&dataset, &ckg, &ppr, options);
  TrainOptions train_options;
  train_options.epochs = 8;
  TrainModel(model, dataset, train_options);

  const int64_t user = dataset.TestUsers().front();
  KucnetForward forward;
  const Status status = model.TryForward(user, ExecContext(), &forward);
  if (!status.ok()) {
    std::fprintf(stderr, "forward failed: %s\n", status.message().c_str());
    return 1;
  }
  const auto top = RecommendTopN(model, dataset, user, 3);

  std::printf("why does KUCNet recommend these items to user %lld?\n",
              (long long)user);
  for (const int64_t item : top) {
    std::printf("\nitem %lld (score %.3f):\n", (long long)item,
                forward.item_scores[item]);
    // The paper prunes edges with attention < 0.5; if nothing survives that
    // bar, relax it so the strongest available evidence is still shown.
    for (const double threshold : {0.5, 0.0}) {
      const auto paths = ExplainItem(forward, ckg, item, threshold, 3);
      if (paths.empty()) continue;
      for (const ExplainedPath& path : paths) {
        std::printf("  [min attention %.2f] %s\n", path.min_attention,
                    FormatPath(path, ckg).c_str());
      }
      break;
    }
  }
  return 0;
}
