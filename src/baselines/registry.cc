#include "baselines/registry.h"

#include "baselines/ckan.h"
#include "baselines/cke.h"
#include "baselines/fm.h"
#include "baselines/kgat.h"
#include "baselines/kgin.h"
#include "baselines/kgnn_ls.h"
#include "baselines/mf.h"
#include "baselines/pathsim.h"
#include "baselines/ppr_rec.h"
#include "baselines/redgnn.h"
#include "baselines/ripplenet.h"
#include "baselines/rgcn.h"
#include "util/logging.h"

namespace kucnet {

namespace {

EmbeddingModelOptions EmbeddingOptions(const ModelContext& context) {
  EmbeddingModelOptions opts;
  opts.dim = context.dim;
  opts.seed = context.seed;
  return opts;
}

GnnBaselineOptions GnnOptions(const ModelContext& context) {
  GnnBaselineOptions opts;
  opts.dim = context.dim;
  opts.seed = context.seed;
  return opts;
}

}  // namespace

std::vector<std::string> AllModelNames() {
  return {"MF",   "FM",     "NFM",     "RippleNet", "KGNN-LS",
          "CKAN", "KGIN",   "CKE",     "R-GCN",     "KGAT",
          "PPR",  "PathSim", "REDGNN", "KUCNet",    "KUCNet-random",
          "KUCNet-w.o.-Attn", "KUCNet-w.o.-PPR"};
}

std::vector<std::string> TraditionalBaselineNames() {
  return {"MF",   "FM",   "NFM", "RippleNet", "KGNN-LS", "CKAN",
          "KGIN", "CKE",  "R-GCN", "KGAT"};
}

std::vector<std::string> InductiveBaselineNames() {
  return {"PPR", "PathSim", "REDGNN"};
}

std::unique_ptr<RankModel> CreateModel(const std::string& name,
                                       const ModelContext& context) {
  KUC_CHECK(context.dataset != nullptr);
  KUC_CHECK(context.ckg != nullptr);
  const Dataset* d = context.dataset;
  const Ckg* g = context.ckg;
  if (name == "MF") {
    return std::make_unique<Mf>(d, EmbeddingOptions(context));
  }
  if (name == "FM") {
    return std::make_unique<FactorizationModel>(
        d, FactorizationModel::Kind::kFm, EmbeddingOptions(context));
  }
  if (name == "NFM") {
    return std::make_unique<FactorizationModel>(
        d, FactorizationModel::Kind::kNfm, EmbeddingOptions(context));
  }
  if (name == "CKE") {
    return std::make_unique<Cke>(d, EmbeddingOptions(context));
  }
  if (name == "R-GCN") {
    return std::make_unique<Rgcn>(d, g, GnnOptions(context));
  }
  if (name == "KGAT") {
    return std::make_unique<Kgat>(d, g, GnnOptions(context));
  }
  if (name == "KGIN") {
    return std::make_unique<KginLite>(d, EmbeddingOptions(context));
  }
  if (name == "KGNN-LS") {
    return std::make_unique<KgnnLs>(d, EmbeddingOptions(context));
  }
  if (name == "CKAN") {
    return std::make_unique<Ckan>(d, EmbeddingOptions(context));
  }
  if (name == "RippleNet") {
    return std::make_unique<RippleNet>(d, g, EmbeddingOptions(context));
  }
  if (name == "PPR") {
    KUC_CHECK(context.ppr != nullptr) << "PPR baseline needs a PprTable";
    return std::make_unique<PprRec>(d, g, context.ppr);
  }
  if (name == "PathSim") {
    return std::make_unique<PathSim>(d, g);
  }
  if (name == "REDGNN") {
    KucnetOptions opts = context.kucnet;
    opts.seed = context.seed;
    return std::make_unique<RedGnn>(d, g, opts);
  }
  if (name == "KUCNet" || name == "KUCNet-random" ||
      name == "KUCNet-w.o.-Attn" || name == "KUCNet-w.o.-PPR") {
    KucnetOptions opts = context.kucnet;
    opts.seed = context.seed;
    if (name == "KUCNet-random") opts.prune = PruneMode::kRandom;
    if (name == "KUCNet-w.o.-Attn") opts.use_attention = false;
    if (name == "KUCNet-w.o.-PPR") {
      opts.prune = PruneMode::kNone;
      opts.sample_k = 0;
    }
    const PprTable* ppr =
        opts.prune == PruneMode::kPpr ? context.ppr : nullptr;
    if (opts.prune == PruneMode::kPpr) {
      KUC_CHECK(ppr != nullptr) << name << " needs a PprTable";
    }
    return std::make_unique<Kucnet>(d, g, ppr, opts);
  }
  KUC_CHECK(false) << "unknown model: " << name;
  return nullptr;
}

int DefaultEpochs(const std::string& name) {
  if (name == "PPR" || name == "PathSim") return 0;  // heuristics
  if (name == "KUCNet" || name == "KUCNet-random" ||
      name == "KUCNet-w.o.-Attn" || name == "KUCNet-w.o.-PPR" ||
      name == "REDGNN") {
    return 8;
  }
  return 20;  // embedding / full-graph models are cheap per epoch
}

}  // namespace kucnet
