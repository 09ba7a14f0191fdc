#include "testing/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "util/finite.h"
#include "util/logging.h"

namespace kucnet {
namespace testing {

namespace {

/// Maps a double onto a monotone signed-integer scale so that adjacent
/// representable doubles differ by 1. Both zeros map to 0.
int64_t OrderedInt(double x) {
  int64_t bits;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  return bits < 0 ? std::numeric_limits<int64_t>::min() - bits : bits;
}

}  // namespace

uint64_t UlpDistance(double a, double b) {
  const bool na = std::isnan(a), nb = std::isnan(b);
  if (na && nb) return 0;
  if (na || nb) return std::numeric_limits<uint64_t>::max();
  if (a == b) return 0;  // covers +0 vs -0 and equal infinities
  const int64_t ia = OrderedInt(a), ib = OrderedInt(b);
  // The subtraction cannot overflow meaningfully for finite/inf inputs, but
  // widen defensively for the -Inf vs +Inf extreme.
  const __int128 d = static_cast<__int128>(ia) - static_cast<__int128>(ib);
  const __int128 mag = d < 0 ? -d : d;
  const auto cap =
      static_cast<__int128>(std::numeric_limits<uint64_t>::max());
  return mag > cap ? std::numeric_limits<uint64_t>::max()
                   : static_cast<uint64_t>(mag);
}

bool NearlyEqualUlp(double a, double b, uint64_t max_ulp) {
  return UlpDistance(a, b) <= max_ulp;
}

// ---- Tensor kernels ----------------------------------------------------------

Matrix OracleMatMul(const Matrix& a, const Matrix& b) {
  KUC_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      real_t acc = 0.0;
      for (int64_t k = 0; k < a.cols(); ++k) acc += a.at(i, k) * b.at(k, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

Matrix OracleMatMulTransposedA(const Matrix& a, const Matrix& b) {
  KUC_CHECK_EQ(a.rows(), b.rows());
  Matrix c(a.cols(), b.cols());
  for (int64_t i = 0; i < a.cols(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      real_t acc = 0.0;
      for (int64_t k = 0; k < a.rows(); ++k) acc += a.at(k, i) * b.at(k, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

Matrix OracleMatMulTransposedB(const Matrix& a, const Matrix& b) {
  KUC_CHECK_EQ(a.cols(), b.cols());
  Matrix c(a.rows(), b.rows());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.rows(); ++j) {
      real_t acc = 0.0;
      for (int64_t k = 0; k < a.cols(); ++k) acc += a.at(i, k) * b.at(j, k);
      c.at(i, j) = acc;
    }
  }
  return c;
}

Matrix OracleAdd(const Matrix& a, const Matrix& b) {
  KUC_CHECK_EQ(a.rows(), b.rows());
  KUC_CHECK_EQ(a.cols(), b.cols());
  Matrix c = a;
  for (int64_t i = 0; i < c.rows(); ++i) {
    for (int64_t j = 0; j < c.cols(); ++j) c.at(i, j) += b.at(i, j);
  }
  return c;
}

Matrix OracleAxpy(real_t alpha, const Matrix& a, const Matrix& b) {
  KUC_CHECK_EQ(a.rows(), b.rows());
  KUC_CHECK_EQ(a.cols(), b.cols());
  Matrix c = a;
  for (int64_t i = 0; i < c.rows(); ++i) {
    for (int64_t j = 0; j < c.cols(); ++j) c.at(i, j) += alpha * b.at(i, j);
  }
  return c;
}

Matrix OracleScale(real_t alpha, const Matrix& a) {
  Matrix c = a;
  for (int64_t i = 0; i < c.rows(); ++i) {
    for (int64_t j = 0; j < c.cols(); ++j) c.at(i, j) *= alpha;
  }
  return c;
}

real_t OracleSum(const Matrix& a) {
  real_t s = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) s += a.data()[i];
  return s;
}

real_t OracleSquaredNorm(const Matrix& a) {
  real_t s = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) s += a.data()[i] * a.data()[i];
  return s;
}

Matrix OracleGather(const Matrix& a, const std::vector<int64_t>& idx) {
  Matrix out(static_cast<int64_t>(idx.size()), a.cols());
  for (int64_t k = 0; k < static_cast<int64_t>(idx.size()); ++k) {
    KUC_CHECK_GE(idx[k], 0);
    KUC_CHECK_LT(idx[k], a.rows());
    for (int64_t j = 0; j < a.cols(); ++j) out.at(k, j) = a.at(idx[k], j);
  }
  return out;
}

Matrix OracleSegmentSum(const Matrix& a, const std::vector<int64_t>& seg,
                        int64_t num_segments) {
  KUC_CHECK_EQ(a.rows(), static_cast<int64_t>(seg.size()));
  Matrix out(num_segments, a.cols());
  for (int64_t k = 0; k < a.rows(); ++k) {
    KUC_CHECK_GE(seg[k], 0);
    KUC_CHECK_LT(seg[k], num_segments);
    for (int64_t j = 0; j < a.cols(); ++j) out.at(seg[k], j) += a.at(k, j);
  }
  return out;
}

// ---- KUCNet ------------------------------------------------------------------

UserCompGraph OracleUserCompGraph(const Ckg& ckg,
                                  const CompGraphOptions& options,
                                  int64_t user_node, const NodeScoreFn* score,
                                  Rng* rng,
                                  const std::vector<ExcludedPair>& excluded) {
  KUC_CHECK_GE(user_node, 0);
  KUC_CHECK_LT(user_node, ckg.num_nodes());
  const bool prune =
      options.max_edges_per_node > 0 && options.prune != PruneMode::kNone;
  const bool by_ppr = prune && options.prune == PruneMode::kPpr;
  KUC_CHECK(!by_ppr || score != nullptr);
  KUC_CHECK(!prune || by_ppr || rng != nullptr);
  std::set<std::pair<int64_t, int64_t>> hidden;
  for (const ExcludedPair& pair : excluded) {
    hidden.insert({pair.user_node, pair.item_node});
    hidden.insert({pair.item_node, pair.user_node});
  }
  const int64_t interact = Ckg::kInteractRelation;
  const int64_t interact_inv = ckg.InverseRelation(interact);

  struct Candidate {
    int64_t rel;
    int64_t dst;
    real_t score;
  };
  UserCompGraph graph;
  graph.user_node = user_node;
  graph.layers.resize(options.depth);
  std::vector<int64_t> heads = {user_node};
  std::unordered_map<int64_t, int64_t> index;
  for (int32_t l = 0; l < options.depth; ++l) {
    CompLayer& layer = graph.layers[l];
    index.clear();
    auto add_edge = [&](int64_t src_index, int64_t rel, int64_t dst) {
      const auto [it, inserted] =
          index.emplace(dst, static_cast<int64_t>(layer.nodes.size()));
      if (inserted) layer.nodes.push_back(dst);
      layer.src_index.push_back(src_index);
      layer.rel.push_back(rel);
      layer.dst_index.push_back(it->second);
    };
    for (size_t si = 0; si < heads.size(); ++si) {
      const int64_t src = heads[si];
      const int64_t s = static_cast<int64_t>(si);
      if (options.self_loops) add_edge(s, ckg.self_loop_relation(), src);
      std::vector<Candidate> candidates;
      const auto rels = ckg.OutRelations(src);
      const auto dsts = ckg.OutNeighbors(src);
      for (size_t e = 0; e < dsts.size(); ++e) {
        const bool interact_edge =
            rels[e] == interact || rels[e] == interact_inv;
        if (interact_edge && hidden.count({src, dsts[e]}) > 0) continue;
        candidates.push_back(
            {rels[e], dsts[e], by_ppr ? (*score)(dsts[e]) : 0.0});
      }
      const int64_t k = options.max_edges_per_node;
      if (prune && static_cast<int64_t>(candidates.size()) > k) {
        if (by_ppr) {
          std::nth_element(candidates.begin(), candidates.begin() + k,
                           candidates.end(),
                           [](const Candidate& a, const Candidate& b) {
                             if (a.score != b.score) return a.score > b.score;
                             if (a.dst != b.dst) return a.dst < b.dst;
                             return a.rel < b.rel;
                           });
          candidates.resize(k);
        } else {
          std::vector<Candidate> kept;
          for (const int64_t pick : rng->SampleWithoutReplacement(
                   static_cast<int64_t>(candidates.size()), k)) {
            kept.push_back(candidates[pick]);
          }
          candidates = std::move(kept);
        }
      }
      for (const Candidate& c : candidates) add_edge(s, c.rel, c.dst);
    }
    heads = layer.nodes;
  }
  graph.final_index = std::move(index);
  return graph;
}

std::string UserCompGraphDifference(const UserCompGraph& got,
                                    const UserCompGraph& want) {
  std::ostringstream diff;
  if (got.user_node != want.user_node) {
    diff << "user_node " << got.user_node << " vs " << want.user_node;
  } else if (got.layers.size() != want.layers.size()) {
    diff << got.layers.size() << " layers vs " << want.layers.size();
  } else {
    for (size_t l = 0; l < got.layers.size() && diff.tellp() == 0; ++l) {
      const CompLayer& g = got.layers[l];
      const CompLayer& w = want.layers[l];
      const char* field = g.src_index != w.src_index ? "src_index"
                          : g.rel != w.rel           ? "rel"
                          : g.dst_index != w.dst_index ? "dst_index"
                          : g.nodes != w.nodes       ? "nodes"
                                                     : nullptr;
      if (field != nullptr) {
        diff << "layer " << l << " " << field << " (" << g.num_edges()
             << " edges/" << g.nodes.size() << " nodes vs " << w.num_edges()
             << "/" << w.nodes.size() << ")";
      }
    }
    if (diff.tellp() == 0 && got.final_index != want.final_index) {
      diff << "final_index (" << got.final_index.size() << " entries vs "
           << want.final_index.size() << ")";
    }
  }
  return diff.str();
}

std::vector<real_t> OracleKucnetScores(Kucnet& model,
                                       const UserCompGraph& graph) {
  const KucnetOptions& opts = model.options();
  std::map<std::string, const Matrix*> params;
  for (const Parameter* p : model.Params()) params[p->name()] = &p->value();
  auto param = [&params](const std::string& name) -> const Matrix& {
    const auto it = params.find(name);
    KUC_CHECK(it != params.end()) << "model has no parameter " << name;
    return *it->second;
  };

  Matrix h(1, opts.hidden_dim);  // h^0: the user's zero row
  for (size_t l = 0; l < graph.layers.size(); ++l) {
    const CompLayer& layer = graph.layers[l];
    const std::string suffix = "_l" + std::to_string(l + 1);
    // Eq. (6): message_e = alpha_e * W^l (h_src(e) + h_rel(e)).
    const Matrix h_src = OracleGather(h, layer.src_index);
    const Matrix h_rel = OracleGather(param("rel_emb" + suffix), layer.rel);
    Matrix messages =
        OracleMatMul(OracleAdd(h_src, h_rel), param("w" + suffix));
    if (opts.use_attention) {
      // alpha_e = sigmoid(w_a^T relu(W_as h_src + W_ar h_rel + b_a)).
      Matrix logits = OracleMatMul(h_rel, param("attn_r" + suffix));
      if (opts.attention_on_source) {
        logits = OracleAdd(OracleMatMul(h_src, param("attn_s" + suffix)),
                           logits);
      }
      const Matrix& bias = param("attn_bias");
      for (int64_t e = 0; e < logits.rows(); ++e) {
        for (int64_t j = 0; j < logits.cols(); ++j) {
          const real_t x = logits.at(e, j) + bias.at(0, j);
          logits.at(e, j) = x > 0.0 ? x : 0.0;
        }
      }
      const Matrix alpha = OracleMatMul(logits, param("attn_v" + suffix));
      for (int64_t e = 0; e < messages.rows(); ++e) {
        const real_t x = alpha.at(e, 0);
        const real_t a = x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                                  : std::exp(x) / (1.0 + std::exp(x));
        for (int64_t j = 0; j < messages.cols(); ++j) messages.at(e, j) *= a;
      }
    }
    // Eq. (5): h^l_dst = delta(sum of the messages into dst).
    h = OracleSegmentSum(messages, layer.dst_index,
                         static_cast<int64_t>(layer.nodes.size()));
    for (int64_t i = 0; i < h.size(); ++i) {
      real_t& x = h.data()[i];
      switch (opts.activation) {
        case KucnetActivation::kIdentity:
          break;
        case KucnetActivation::kTanh:
          x = std::tanh(x);
          break;
        case KucnetActivation::kRelu:
          x = x > 0.0 ? x : 0.0;
          break;
      }
    }
  }
  // Eq. (7): score = w^T h^L.
  const Matrix scores = OracleMatMul(h, param("readout"));
  return std::vector<real_t>(scores.data(), scores.data() + scores.size());
}

Var OracleKucnetTapeScores(Kucnet& model, Tape& tape,
                           const UserCompGraph& graph) {
  const KucnetOptions& opts = model.options();
  std::map<std::string, Parameter*> params;
  for (Parameter* p : model.Params()) params[p->name()] = p;
  auto param = [&params](const std::string& name) -> Parameter* {
    const auto it = params.find(name);
    KUC_CHECK(it != params.end()) << "model has no parameter " << name;
    return it->second;
  };

  // h^0: the user's zero row.
  Var h = tape.Constant(Matrix::Zeros(1, opts.hidden_dim));
  for (size_t l = 0; l < graph.layers.size(); ++l) {
    const CompLayer& layer = graph.layers[l];
    const std::string suffix = "_l" + std::to_string(l + 1);
    if (layer.num_edges() == 0) {
      h = tape.Constant(Matrix::Zeros(0, opts.hidden_dim));
      continue;
    }
    // Eq. (6): message_e = alpha_e * W^l (h_src(e) + h_rel(e)).
    const Var h_src = tape.Gather(h, layer.src_index);
    const Var h_rel = tape.GatherParam(param("rel_emb" + suffix), layer.rel);
    const Var m = tape.Add(h_src, h_rel);
    Var messages = tape.MatMul(m, tape.Param(param("w" + suffix)));
    if (opts.use_attention) {
      // alpha_e = sigmoid(w_a^T relu(W_as h_src + W_ar h_rel + b_a)).
      Var logits = tape.MatMul(h_rel, tape.Param(param("attn_r" + suffix)));
      if (opts.attention_on_source) {
        logits = tape.Add(
            tape.MatMul(h_src, tape.Param(param("attn_s" + suffix))), logits);
      }
      const Var pre =
          tape.AddRowBroadcast(logits, tape.Param(param("attn_bias")));
      const Var alpha = tape.Sigmoid(
          tape.MatMul(tape.Relu(pre), tape.Param(param("attn_v" + suffix))));
      messages = tape.RowScale(messages, alpha);
    }
    // Eq. (5): h^l_dst = delta(sum of the messages into dst).
    const Var aggregated = tape.SegmentSum(
        messages, layer.dst_index, static_cast<int64_t>(layer.nodes.size()));
    switch (opts.activation) {
      case KucnetActivation::kIdentity:
        h = aggregated;
        break;
      case KucnetActivation::kTanh:
        h = tape.Tanh(aggregated);
        break;
      case KucnetActivation::kRelu:
        h = tape.Relu(aggregated);
        break;
    }
  }
  // Eq. (7): score = w^T h^L.
  return tape.MatMul(h, tape.Param(param("readout")));
}

Var OracleKucnetLoss(Kucnet& model, Tape& tape, const UserCompGraph& graph,
                     const std::vector<int64_t>& pos_idx,
                     const std::vector<int64_t>& neg_idx) {
  KUC_CHECK_EQ(pos_idx.size(), neg_idx.size());
  KUC_CHECK(!pos_idx.empty());
  const Var scores = OracleKucnetTapeScores(model, tape, graph);
  return tape.BprLoss(tape.Gather(scores, pos_idx),
                      tape.Gather(scores, neg_idx));
}

// ---- PPR ---------------------------------------------------------------------

OraclePprResult OraclePprPush(const Ckg& ckg, int64_t source, real_t alpha,
                              real_t epsilon) {
  KUC_CHECK_GE(source, 0);
  KUC_CHECK_LT(source, ckg.num_nodes());
  OraclePprResult result;
  auto& estimate = result.estimate;
  auto& residual = result.residual;
  residual[source] = 1.0;
  std::deque<int64_t> queue = {source};
  std::map<int64_t, bool> queued;
  queued[source] = true;

  while (!queue.empty()) {
    const int64_t v = queue.front();
    queue.pop_front();
    queued[v] = false;
    const int64_t deg = ckg.OutDegree(v);
    real_t& rv = residual[v];
    if (deg == 0) {
      // Dangling: the walk cannot leave, so all mass is absorbed in place.
      estimate[v] += rv;
      rv = 0.0;
      continue;
    }
    if (rv < epsilon * static_cast<real_t>(deg)) continue;
    const real_t mass = rv;
    estimate[v] += alpha * mass;
    rv = 0.0;
    const real_t push = (1.0 - alpha) * mass / static_cast<real_t>(deg);
    for (const int64_t w : ckg.OutNeighbors(v)) {
      real_t& rw = residual[w];
      rw += push;
      if (rw >= epsilon * static_cast<real_t>(ckg.OutDegree(w)) &&
          !queued[w]) {
        queued[w] = true;
        queue.push_back(w);
      }
    }
  }

  // Mass accounting in ascending node id order, for reproducible rounding.
  std::map<int64_t, real_t> ordered;
  for (const auto& [node, value] : estimate) ordered[node] += value;
  for (const auto& [node, value] : residual) ordered[node] += value;
  result.total_mass = 0.0;
  for (const auto& [node, value] : ordered) result.total_mass += value;
  return result;
}

OracleDensePpr OraclePprDense(const Ckg& ckg, int64_t source, real_t alpha,
                              int iterations) {
  KUC_CHECK_GE(source, 0);
  KUC_CHECK_LT(source, ckg.num_nodes());
  const int64_t n = ckg.num_nodes();
  OracleDensePpr out;
  out.estimate.assign(n, 0.0);
  out.residual.assign(n, 0.0);
  out.residual[source] = 1.0;
  std::vector<real_t> next(n, 0.0);
  for (int it = 0; it < iterations; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    for (int64_t v = 0; v < n; ++v) {
      const real_t rv = out.residual[v];
      if (rv == 0.0) continue;
      const int64_t deg = ckg.OutDegree(v);
      if (deg == 0) {
        out.estimate[v] += rv;  // absorbed, exactly like the push
        continue;
      }
      out.estimate[v] += alpha * rv;
      const real_t push = (1.0 - alpha) * rv / static_cast<real_t>(deg);
      for (const int64_t w : ckg.OutNeighbors(v)) next[w] += push;
    }
    std::swap(out.residual, next);
  }
  return out;
}

OraclePprResult OracleStreamRecompute(const DynamicCkg& graph, int64_t user,
                                      real_t alpha, real_t epsilon) {
  const Ckg rebuilt = graph.Rebuild();
  return OraclePprPush(rebuilt, rebuilt.UserNode(user), alpha, epsilon);
}

void OraclePprRepair(const DynamicCkg& graph, const std::vector<Edge>& inserted,
                     real_t alpha, real_t epsilon,
                     std::unordered_map<int64_t, real_t>* estimate,
                     std::unordered_map<int64_t, real_t>* residual) {
  auto& est = *estimate;
  auto& res = *residual;
  // A read that creates no entry.
  auto value_or_zero = [](const std::unordered_map<int64_t, real_t>& map,
                          int64_t v) {
    const auto it = map.find(v);
    return it == map.end() ? 0.0 : it->second;
  };
  bool moves_mass = false;
  for (const Edge& e : inserted) {
    if (value_or_zero(est, e.src) != 0.0) moves_mass = true;
  }
  if (!moves_mass) return;

  std::set<int64_t> dirty;
  for (size_t j = 0; j < inserted.size(); ++j) {
    const Edge& e = inserted[j];
    int64_t d_old = graph.OutDegree(e.src);
    for (size_t k = j; k < inserted.size(); ++k) {
      if (inserted[k].src == e.src) --d_old;
    }
    KUC_CHECK_GE(d_old, 0);
    const real_t pu = value_or_zero(est, e.src);
    if (pu == 0.0) continue;
    if (d_old == 0) {
      // Always dangling until now: all of the estimate is absorbed mass.
      res[e.src] += pu;
      est[e.src] = 0.0;
      dirty.insert(e.src);
      continue;
    }
    const real_t out_mass = (1.0 - alpha) * pu / alpha;
    const real_t d_o = static_cast<real_t>(d_old);
    const real_t d_n = static_cast<real_t>(d_old + 1);
    const real_t delta_old = out_mass * (1.0 / d_n - 1.0 / d_o);
    graph.ForEachOutNeighborPrefix(e.src, d_old,
                                   [&](int64_t /*rel*/, int64_t v) {
                                     res[v] += delta_old;
                                     dirty.insert(v);
                                   });
    res[e.dst] += out_mass / d_n;
    dirty.insert(e.dst);
  }

  std::deque<int64_t> queue;
  std::set<int64_t> queued;
  for (const int64_t v : dirty) {
    const real_t rv = value_or_zero(res, v);
    const int64_t deg = graph.OutDegree(v);
    if (deg == 0 ? rv != 0.0
                 : std::abs(rv) >= epsilon * static_cast<real_t>(deg)) {
      queue.push_back(v);
      queued.insert(v);
    }
  }
  while (!queue.empty()) {
    const int64_t v = queue.front();
    queue.pop_front();
    queued.erase(v);
    const int64_t deg = graph.OutDegree(v);
    real_t& rv = res[v];
    if (deg == 0) {
      est[v] += rv;
      rv = 0.0;
      continue;
    }
    if (std::abs(rv) < epsilon * static_cast<real_t>(deg)) continue;
    const real_t mass = rv;
    est[v] += alpha * mass;
    rv = 0.0;
    const real_t push = (1.0 - alpha) * mass / static_cast<real_t>(deg);
    graph.ForEachOutNeighbor(v, [&](int64_t /*rel*/, int64_t w) {
      real_t& rw = res[w];
      rw += push;
      if (std::abs(rw) >= epsilon * static_cast<real_t>(graph.OutDegree(w)) &&
          queued.insert(w).second) {
        queue.push_back(w);
      }
    });
  }
}

// ---- Ranking / metrics -------------------------------------------------------

std::vector<int64_t> OracleTopN(const std::vector<double>& scores, int64_t n,
                                const std::vector<bool>* mask) {
  std::vector<int64_t> idx;
  for (int64_t i = 0; i < static_cast<int64_t>(scores.size()); ++i) {
    if (mask != nullptr && (*mask)[i]) continue;
    idx.push_back(i);
  }
  std::stable_sort(idx.begin(), idx.end(), TotalScoreOrder{&scores});
  if (static_cast<int64_t>(idx.size()) > n) idx.resize(n);
  return idx;
}

double OracleRecallAtN(const std::vector<int64_t>& ranked,
                       const std::unordered_set<int64_t>& test, int64_t n) {
  if (test.empty()) return 0.0;
  int64_t hits = 0;
  for (int64_t i = 0;
       i < std::min<int64_t>(n, static_cast<int64_t>(ranked.size())); ++i) {
    hits += test.count(ranked[i]) ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(test.size());
}

double OracleNdcgAtN(const std::vector<int64_t>& ranked,
                     const std::unordered_set<int64_t>& test, int64_t n) {
  if (test.empty()) return 0.0;
  double dcg = 0.0;
  for (int64_t i = 0;
       i < std::min<int64_t>(n, static_cast<int64_t>(ranked.size())); ++i) {
    if (test.count(ranked[i])) {
      dcg += std::log(2.0) / std::log(static_cast<double>(i) + 2.0);
    }
  }
  double ideal = 0.0;
  for (int64_t i = 0; i < std::min<int64_t>(static_cast<int64_t>(test.size()), n);
       ++i) {
    ideal += std::log(2.0) / std::log(static_cast<double>(i) + 2.0);
  }
  return ideal > 0.0 ? dcg / ideal : 0.0;
}

}  // namespace testing
}  // namespace kucnet
