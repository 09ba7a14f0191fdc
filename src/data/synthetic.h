#ifndef KUCNET_DATA_SYNTHETIC_H_
#define KUCNET_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

/// \file
/// Synthetic collaborative-knowledge-graph generator.
///
/// The paper evaluates on Last-FM, Amazon-Book, Alibaba-iFashion and
/// DisGeNet. Those logs are not redistributable here, so we generate data
/// from a latent-topic model that reproduces the *structural* properties the
/// paper's findings depend on (see DESIGN.md, substitution table):
///
///  * users prefer a small number of latent topics; items belong to topics;
///    interactions are concentrated on preferred topics (collaborative
///    signal);
///  * the KG links items to topic-specific attribute entities (attribute
///    similarity), optionally with entity-entity structure (KG depth) —
///    this is the channel that makes *new* items reachable;
///  * a noise knob degrades KG informativeness: with high noise and no
///    entity-entity edges the KG is first-order and uninformative,
///    mirroring Alibaba-iFashion where KG-based methods underperform;
///  * an optional user-user relation mirrors DisGeNet's disease-disease
///    edges, enabling the new-user setting.

namespace kucnet {

/// Knobs of the latent-topic CKG generator.
struct SyntheticConfig {
  std::string name = "synthetic";
  uint64_t seed = 1;

  // Interaction model.
  int64_t num_users = 300;
  int64_t num_items = 400;
  int64_t num_topics = 10;
  int64_t interactions_per_user = 12;
  /// Per-user degree jitter: each user's target count is drawn uniformly
  /// from [n - jitter, n + jitter] (clamped at 1). Real logs have skewed
  /// user degrees; 0 disables.
  int64_t interactions_jitter = 0;
  /// Probability an interaction is drawn from the user's preferred topics.
  double topic_concentration = 0.85;
  /// Zipf exponent of item popularity within a topic (0 = uniform).
  double popularity_exponent = 0.8;

  // Knowledge graph model.
  int64_t entities_per_topic = 10;
  int64_t num_shared_entities = 30;  ///< topic-agnostic noise entities
  int64_t num_item_relations = 3;    ///< relation types for item->entity
  int64_t attributes_per_item = 3;   ///< item->entity edges per item
  /// Fraction of attribute edges rewired to a random entity (KG noise).
  double kg_noise = 0.1;
  /// Entity-entity edges inside each topic (0 disables; adds one relation).
  int64_t entity_entity_edges_per_topic = 10;
  /// User-user edges per user to same-topic users (0 disables; adds one
  /// relation). Models DisGeNet's disease-disease similarity.
  int64_t user_user_edges_per_user = 0;
};

/// Generated data plus the latent ground truth (used by tests and for
/// interpretability demos; models never see it).
struct SyntheticData {
  RawData raw;
  std::vector<int64_t> item_topic;          ///< size num_items
  std::vector<int64_t> user_primary_topic;  ///< size num_users
  std::vector<int64_t> entity_topic;  ///< per non-item KG entity; -1 = shared
  /// Simulated arrival order: a seeded permutation of indices into
  /// `raw.interactions`, for TemporalSplit / streaming replay. Drawn *after*
  /// everything else, so adding it did not perturb any previously generated
  /// seeded output.
  std::vector<int64_t> arrival_order;
};

/// Runs the generator. Deterministic in config.seed.
SyntheticData GenerateSynthetic(const SyntheticConfig& config);

/// Named configurations mirroring the paper's datasets (Table II), scaled to
/// laptop size. See DESIGN.md for the property-by-property correspondence.
SyntheticConfig SynthLastFmConfig();
SyntheticConfig SynthAmazonBookConfig();
SyntheticConfig SynthIFashionConfig();
SyntheticConfig SynthDisGeNetConfig();

/// Lookup by name ("synth-lastfm", "synth-amazon-book", "synth-ifashion",
/// "synth-disgenet") into `*out`; an unknown name is an error naming it.
Status SynthConfigByName(const std::string& name, SyntheticConfig* out);

}  // namespace kucnet

#endif  // KUCNET_DATA_SYNTHETIC_H_
