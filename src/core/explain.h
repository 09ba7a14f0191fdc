#ifndef KUCNET_CORE_EXPLAIN_H_
#define KUCNET_CORE_EXPLAIN_H_

#include <string>
#include <vector>

#include "core/kucnet.h"
#include "graph/ckg.h"

/// \file
/// Interpretability tooling (Sec. V-F): extract the high-attention paths
/// that carried the recommendation signal from the user to an item, the
/// programmatic equivalent of the paper's Fig. 7 visualizations.

namespace kucnet {

/// One scored edge of a forward pass, for interpretability (Sec. V-F).
struct AttributedEdge {
  int32_t layer;  ///< 1-based hop
  int64_t src;    ///< global node id
  int64_t rel;    ///< CKG relation id (may be the self-loop)
  int64_t dst;    ///< global node id
  double attention;  ///< alpha in [0, 1]
};

/// One length-L reasoning path from the user to a recommended item.
struct ExplainedPath {
  std::vector<AttributedEdge> hops;  ///< hop 1..L in order
  double min_attention = 0.0;        ///< weakest link on the path
};

/// Enumerates the paths from the user to `item` through the forward pass's
/// computation graph whose every edge has attention >= `threshold` (the
/// paper prunes below 0.5). Edges are attributed from `forward.graph` and
/// `forward.attention`, so `forward` must be a completed forward pass.
/// Self-loop hops are kept (they appear as "(stay)" in the formatted
/// output). At most `max_paths` paths are returned, strongest (by min
/// attention) first.
std::vector<ExplainedPath> ExplainItem(const KucnetForward& forward,
                                       const Ckg& ckg, int64_t item,
                                       double threshold = 0.5,
                                       int64_t max_paths = 10);

/// Human-readable relation name: "interact", "kg:<r>", "inv:...", "self".
std::string RelationName(const Ckg& ckg, int64_t rel);

/// Human-readable node name: "user:<u>", "item:<i>", "entity:<e>".
std::string NodeName(const Ckg& ckg, int64_t node);

/// "user:0 -[interact]-> item:5 -[inv:kg:1]-> ..." for one path.
std::string FormatPath(const ExplainedPath& path, const Ckg& ckg);

}  // namespace kucnet

#endif  // KUCNET_CORE_EXPLAIN_H_
