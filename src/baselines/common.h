#ifndef KUCNET_BASELINES_COMMON_H_
#define KUCNET_BASELINES_COMMON_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "graph/ckg.h"

/// \file
/// Shared helpers for the baseline models (Sec. V-B1 / V-C1).

namespace kucnet {

/// All CKG edges flattened into parallel arrays (both directions included),
/// ready for gather / segment-sum message passing over the full graph.
struct FlatEdges {
  std::vector<int64_t> src;
  std::vector<int64_t> rel;
  std::vector<int64_t> dst;

  int64_t size() const { return static_cast<int64_t>(src.size()); }
};

/// Extracts every directed edge of the CKG.
FlatEdges AllEdges(const Ckg& ckg);

/// KG entities adjacent to each item (one hop, out of the item, KG relations
/// only). Used as side features by FM/NFM and by the shallow KG baselines.
/// Returned ids are KG-local (items first, then entities).
std::vector<std::vector<int64_t>> ItemKgNeighbors(const Dataset& dataset);

/// (entity, relation) pairs adjacent to each item; parallel to
/// ItemKgNeighbors but keeps the relation of each edge (KG-relation index in
/// [0, num_kg_relations)).
struct ItemNeighbor {
  int64_t entity;  ///< KG-local id
  int64_t rel;     ///< KG relation in [0, num_kg_relations)
};
std::vector<std::vector<ItemNeighbor>> ItemKgNeighborsWithRelations(
    const Dataset& dataset);

}  // namespace kucnet

#endif  // KUCNET_BASELINES_COMMON_H_
