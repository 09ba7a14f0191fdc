#include "store/web_scale.h"

#include <algorithm>

namespace kucnet {

WebScaleConfig WebScaleFullConfig() { return WebScaleConfig(); }

WebScaleConfig WebScaleReducedConfig() {
  WebScaleConfig c;
  c.name = "synth-web-scale-reduced";
  c.num_users = 10'000;
  c.num_items = 1'000;
  c.num_entities = 9'000;
  c.num_kg_relations = 8;
  c.interactions_per_user = 10;
  c.num_kg_triplets = 100'000;
  return c;
}

Status ValidateWebScaleConfig(const WebScaleConfig& config) {
  if (config.num_users <= 0 || config.num_items <= 0 ||
      config.num_entities <= 0 || config.num_kg_relations <= 0 ||
      config.interactions_per_user < 0 || config.num_kg_triplets < 0) {
    return ErrorStatus() << "web-scale config '" << config.name
                         << "': all sizes must be positive (users="
                         << config.num_users << " items=" << config.num_items
                         << " entities=" << config.num_entities
                         << " kg_relations=" << config.num_kg_relations
                         << " interactions_per_user="
                         << config.interactions_per_user
                         << " kg_triplets=" << config.num_kg_triplets << ")";
  }
  if (!(config.item_popularity_exponent >= 0.0) ||
      !(config.entity_popularity_exponent >= 0.0)) {
    return ErrorStatus() << "web-scale config '" << config.name
                         << "': popularity exponents must be >= 0";
  }
  return Status::Ok();
}

ZipfSampler::ZipfSampler(int64_t n, double exponent) {
  cdf_.resize(static_cast<size_t>(n));
  double total = 0.0;
  for (int64_t k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -exponent);
    cdf_[static_cast<size_t>(k)] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against accumulated rounding
}

int64_t ZipfSampler::Sample(uint64_t hash) const {
  // 53 high bits -> uniform double in [0, 1).
  const double u = static_cast<double>(hash >> 11) * 0x1.0p-53;
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const int64_t idx = it - cdf_.begin();
  return std::min<int64_t>(idx, static_cast<int64_t>(cdf_.size()) - 1);
}

Status TryGenerateWebScaleGraph(const WebScaleConfig& config, Ckg* out) {
  KUC_RETURN_IF_ERROR(ValidateWebScaleConfig(config));
  const int64_t num_users = config.num_users;
  const int64_t num_base = 1 + config.num_kg_relations;
  return Ckg::TryAssemble(
      num_users, config.num_items, config.num_kg_nodes(),
      config.num_kg_relations,
      [&](const auto& sink) {
        ForEachWebScaleInput(
            config,
            [&](int64_t user, int64_t item) {
              const int64_t i = num_users + item;
              sink(user, Ckg::kInteractRelation, i);
              sink(i, Ckg::kInteractRelation + num_base, user);
            },
            [&](int64_t head, int64_t rel, int64_t tail) {
              const int64_t h = num_users + head;
              const int64_t t = num_users + tail;
              const int64_t r = rel + 1;
              sink(h, r, t);
              sink(t, r + num_base, h);
            });
      },
      out);
}

Status GenerateWebScaleContainer(FileSystem& fs, const std::string& path,
                                 const WebScaleConfig& config,
                                 Ckg* graph_out) {
  Ckg local;
  Ckg& graph = graph_out != nullptr ? *graph_out : local;
  KUC_RETURN_IF_ERROR(TryGenerateWebScaleGraph(config, &graph));
  return SaveCkgContainer(fs, path, graph);
}

void MaterializeWebScaleInputs(
    const WebScaleConfig& config,
    std::vector<std::array<int64_t, 2>>* interactions,
    std::vector<std::array<int64_t, 3>>* kg_triplets) {
  interactions->clear();
  kg_triplets->clear();
  ForEachWebScaleInput(
      config,
      [&](int64_t user, int64_t item) {
        interactions->push_back({user, item});
      },
      [&](int64_t head, int64_t rel, int64_t tail) {
        kg_triplets->push_back({head, rel, tail});
      });
}

}  // namespace kucnet
