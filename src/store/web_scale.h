#ifndef KUCNET_STORE_WEB_SCALE_H_
#define KUCNET_STORE_WEB_SCALE_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/ckg.h"
#include "store/container.h"
#include "util/fs.h"
#include "util/status.h"

/// \file
/// `synth-web-scale`: the million-user generator of the web-scale data plane
/// (DESIGN.md §5g).
///
/// The latent-topic generator (data/synthetic.h) materializes RawData
/// vectors, which caps it at laptop sizes. This generator is *streaming*:
/// every edge is derived from a counter-based hash of (seed, stream, index),
/// so the full edge sequence can be replayed any number of times with O(1)
/// state per edge and fed straight into `Ckg::TryAssemble`'s two-pass
/// assembly — 10⁶ users / 10⁵ items / 10⁷ KG triplets never exist as a
/// `vector<array<int64_t, 3>>`.
///
/// Structure: each user interacts with `interactions_per_user` items drawn
/// Zipf-skewed by popularity (the head items absorb most traffic, like real
/// logs); KG triplets alternate item→entity and entity→entity endpoints
/// drawn from Zipf-skewed item/entity popularity, so items connect to the
/// entity layer and the entity layer has internal structure (the KGCN-style
/// receptive field PPR explores). Deterministic in `seed`; the identical
/// logical inputs can be materialized at small scale
/// (`MaterializeWebScaleInputs`) for the in-memory `Ckg::TryBuild` and the
/// adjacency oracle that diff_fuzz compares against.

namespace kucnet {

/// The former name of the graph class, kept for the repository benchmark
/// (perfbench/main.cc), which generates the reduced graph through it.
using CompactCkg = Ckg;

/// Knobs of the streaming web-scale generator.
struct WebScaleConfig {
  std::string name = "synth-web-scale";
  uint64_t seed = 9;

  int64_t num_users = 1'000'000;
  int64_t num_items = 100'000;
  int64_t num_entities = 900'000;  ///< non-item KG entities
  int64_t num_kg_relations = 8;
  int64_t interactions_per_user = 10;
  int64_t num_kg_triplets = 10'000'000;

  /// Zipf exponents of item / entity popularity (0 = uniform).
  double item_popularity_exponent = 0.8;
  double entity_popularity_exponent = 0.8;

  int64_t num_kg_nodes() const { return num_items + num_entities; }
};

/// The full 10⁶-user configuration (the defaults above).
WebScaleConfig WebScaleFullConfig();

/// Reduced 10⁴ users / 10⁵ triplets configuration for the `scale` CI smoke.
WebScaleConfig WebScaleReducedConfig();

/// Config validation shared by every entry point.
Status ValidateWebScaleConfig(const WebScaleConfig& config);

/// Stateless per-draw hash: splitmix64 over (seed, stream, index).
inline uint64_t WebScaleHash(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t x = seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
               (index * 0xbf58476d1ce4e5b9ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Zipf(s) sampler over [0, n) by inverse CDF: O(n) doubles once, O(log n)
/// per draw, no per-draw state.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double exponent);

  /// Maps a raw 64-bit hash to an index in [0, n).
  int64_t Sample(uint64_t hash) const;

 private:
  std::vector<double> cdf_;  ///< cumulative normalized weights
};

/// Calls `on_interaction(user, item)` for every interaction and
/// `on_triplet(head, rel, tail)` (KG-local ids) for every triplet, in a
/// fixed deterministic order. The streaming generator replays this twice;
/// tests materialize it once.
template <typename InteractionFn, typename TripletFn>
void ForEachWebScaleInput(const WebScaleConfig& c,
                          InteractionFn&& on_interaction,
                          TripletFn&& on_triplet) {
  const ZipfSampler items(c.num_items, c.item_popularity_exponent);
  const ZipfSampler entities(c.num_entities, c.entity_popularity_exponent);
  for (int64_t u = 0; u < c.num_users; ++u) {
    for (int64_t k = 0; k < c.interactions_per_user; ++k) {
      const uint64_t draw =
          static_cast<uint64_t>(u) * c.interactions_per_user + k;
      on_interaction(u, items.Sample(WebScaleHash(c.seed, 1, draw)));
    }
  }
  for (int64_t t = 0; t < c.num_kg_triplets; ++t) {
    const uint64_t ut = static_cast<uint64_t>(t);
    const int64_t rel = static_cast<int64_t>(
        WebScaleHash(c.seed, 2, ut) % static_cast<uint64_t>(c.num_kg_relations));
    // Alternate item->entity and entity->entity so items reach the entity
    // layer and the layer has internal structure.
    const int64_t head =
        (t % 2 == 0)
            ? items.Sample(WebScaleHash(c.seed, 3, ut))
            : c.num_items + entities.Sample(WebScaleHash(c.seed, 3, ut));
    const int64_t tail =
        c.num_items + entities.Sample(WebScaleHash(c.seed, 4, ut));
    on_triplet(head, rel, tail);
  }
}

/// Streams the configured graph into a Ckg (two deterministic passes; O(1)
/// memory per edge beyond the final arrays).
Status TryGenerateWebScaleGraph(const WebScaleConfig& config, Ckg* out);

/// Generates and writes the KUCSTOR1 container at `path` in one step; on
/// success `*graph_out` (optional) receives the in-memory graph so callers
/// can verify the written file against it.
Status GenerateWebScaleContainer(FileSystem& fs, const std::string& path,
                                 const WebScaleConfig& config,
                                 Ckg* graph_out = nullptr);

/// Materializes the exact logical inputs the streaming generator emits, for
/// building the same graph in memory or an oracle of it. Small
/// configurations only: this is the O(edges)-memory path the streaming
/// generator exists to avoid.
void MaterializeWebScaleInputs(
    const WebScaleConfig& config,
    std::vector<std::array<int64_t, 2>>* interactions,
    std::vector<std::array<int64_t, 3>>* kg_triplets);

}  // namespace kucnet

#endif  // KUCNET_STORE_WEB_SCALE_H_
