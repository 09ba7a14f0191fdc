#ifndef KUCNET_GRAPH_GRAPH_REF_H_
#define KUCNET_GRAPH_GRAPH_REF_H_

#include <cstdint>

#include "graph/ckg.h"

/// \file
/// GraphRef: a non-owning reference to a `Ckg`, the parameter type through
/// which Kucnet, CompGraphBuilder, RecServer and the fleet take their graph.
/// It converts implicitly from `const Ckg*`; `Visit` hands the graph to a
/// callable.

namespace kucnet {

/// Non-owning reference to a `Ckg`; the graph must outlive it.
class GraphRef {
 public:
  GraphRef() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, see \file.
  GraphRef(const Ckg* ckg) : ckg_(ckg) {}

  const Ckg* get() const { return ckg_; }

  /// Invokes `fn` with the graph.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    return fn(*ckg_);
  }

  int64_t UserNode(int64_t user) const { return ckg_->UserNode(user); }
  bool IsItem(int64_t node) const { return ckg_->IsItem(node); }
  int64_t ItemOfNode(int64_t node) const { return ckg_->ItemOfNode(node); }

 private:
  const Ckg* ckg_ = nullptr;
};

}  // namespace kucnet

#endif  // KUCNET_GRAPH_GRAPH_REF_H_
