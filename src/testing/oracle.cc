#include "testing/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <string>

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
