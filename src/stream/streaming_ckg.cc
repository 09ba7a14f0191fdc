#include "stream/streaming_ckg.h"

#include <unistd.h>

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/serial.h"

namespace kucnet {

StreamingCkg::StreamingCkg(const Dataset& data, FileSystem* fs,
                           std::string dir, StreamingCkgOptions options,
                           ThreadPool* pool)
    : options_(options),
      pool_(pool),
      graph_(data.num_users, data.num_items, data.num_kg_nodes,
             data.num_kg_relations, data.train, data.kg, data.user_kg),
      ppr_(DynamicPprTable::Compute(graph_, options.ppr, pool)),
      wal_(fs, std::move(dir), options.wal) {}

Status StreamingCkg::Open(const Dataset& data, FileSystem* fs,
                          std::string dir, StreamingCkgOptions options,
                          ThreadPool* pool,
                          std::unique_ptr<StreamingCkg>* out) {
  KUC_TRACE_SPAN("stream.open");
  // The PPR table keeps every user's state dense over all graph nodes
  // (ppr/dynamic_ppr.h): refuse sizes whose state exceeds physical memory
  // before anything is built. Doubles keep any declared size from
  // overflowing.
  const double num_nodes = static_cast<double>(data.num_users) +
                           static_cast<double>(data.num_kg_nodes);
  const double state_bytes = static_cast<double>(data.num_users) * num_nodes *
                             DynamicPprTable::kStateBytesPerNode;
  const double memory_bytes = static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
                              static_cast<double>(sysconf(_SC_PAGE_SIZE));
  if (memory_bytes > 0 && state_bytes > memory_bytes) {
    return ErrorStatus() << "stream: the PPR state of " << data.num_users
                         << " users and " << data.num_kg_nodes
                         << " KG nodes takes " << state_bytes
                         << " bytes, more than the " << memory_bytes
                         << " bytes of physical memory";
  }
  std::unique_ptr<StreamingCkg> ckg(
      new StreamingCkg(data, fs, std::move(dir), options, pool));
  std::vector<GraphUpdate> recovered;
  KUC_RETURN_IF_ERROR(ckg->wal_.Open(&recovered));
  for (const GraphUpdate& update : recovered) {
    // Recovery replays through the exact apply path live appends take; any
    // record that fails validation here was corrupt-but-checksummed, which
    // Open must refuse rather than skip.
    KUC_RETURN_IF_ERROR(ckg->Validate(update));
    ckg->ApplyRecord(update);
  }
  ckg->stats_.replayed = static_cast<int64_t>(recovered.size());
  KUC_OBS_COUNT("stream.recovered_records", ckg->stats_.replayed);
  *out = std::move(ckg);
  return Status::Ok();
}

Status StreamingCkg::Validate(const GraphUpdate& update) const {
  switch (update.type) {
    case UpdateType::kInteraction:
      if (update.a < 0 || update.a >= graph_.num_users()) {
        return ErrorStatus() << "stream: user " << update.a
                             << " out of range [0, " << graph_.num_users()
                             << ")";
      }
      if (update.b < 0 || update.b >= graph_.num_items()) {
        return ErrorStatus() << "stream: item " << update.b
                             << " out of range [0, " << graph_.num_items()
                             << ")";
      }
      return Status::Ok();
    case UpdateType::kKgTriplet:
      if (update.a < 0 || update.a >= graph_.num_kg_nodes() ||
          update.c < 0 || update.c >= graph_.num_kg_nodes()) {
        return ErrorStatus() << "stream: kg node out of range in triplet ("
                             << update.a << ", " << update.b << ", "
                             << update.c << ")";
      }
      if (update.b < 0 || update.b >= graph_.num_kg_relations()) {
        return ErrorStatus() << "stream: kg relation " << update.b
                             << " out of range [0, "
                             << graph_.num_kg_relations() << ")";
      }
      return Status::Ok();
  }
  return ErrorStatus() << "stream: unknown update type "
                       << static_cast<int>(update.type);
}

std::vector<int64_t> StreamingCkg::ApplyRecord(const GraphUpdate& update) {
  std::vector<Edge> inserted;
  bool fresh = false;
  switch (update.type) {
    case UpdateType::kInteraction:
      fresh = graph_.AddInteraction(update.a, update.b, &inserted);
      break;
    case UpdateType::kKgTriplet:
      fresh = graph_.AddKgTriplet(update.a, update.b, update.c, &inserted);
      break;
  }
  if (!fresh) {
    ++stats_.duplicates;
    return {};
  }
  ++stats_.applied;
  std::vector<int64_t> touched =
      ppr_.ApplyEdgeInsertions(graph_, inserted, pool_);
  stats_.invalidated_users += static_cast<int64_t>(touched.size());
  return touched;
}

Status StreamingCkg::AppendRecord(GraphUpdate update) {
  KUC_TRACE_SPAN("stream.append");
  update.seq = wal_.next_seq();
  KUC_RETURN_IF_ERROR(Validate(update));
  // WAL first: once Append acks, the update survives any crash; only then
  // is it visible in memory.
  KUC_RETURN_IF_ERROR(wal_.Append(update));
  const std::vector<int64_t> touched = ApplyRecord(update);
  KUC_OBS_COUNT("stream.appends", 1);
  if (!touched.empty() && invalidation_hook_) invalidation_hook_(touched);
  return Status::Ok();
}

Status StreamingCkg::AppendInteraction(int64_t user, int64_t item) {
  return AppendRecord(GraphUpdate::Interaction(0, user, item));
}

Status StreamingCkg::AppendKgTriplet(int64_t head, int64_t rel,
                                     int64_t tail) {
  return AppendRecord(GraphUpdate::KgTriplet(0, head, rel, tail));
}

uint64_t StreamingCkg::StateDigest() const {
  ByteWriter w;
  // Graph overlay: per-node overflow edges in canonical (insertion) order.
  w.I64(graph_.num_nodes());
  w.I64(graph_.num_edges());
  for (int64_t v = 0; v < graph_.num_nodes(); ++v) {
    const int64_t base_deg = graph_.base().OutDegree(v);
    const int64_t deg = graph_.OutDegree(v);
    if (deg == base_deg) continue;
    w.I64(v);
    int64_t k = 0;
    graph_.ForEachOutNeighbor(v, [&](int64_t rel, int64_t dst) {
      if (k++ < base_deg) return;
      w.I64(rel);
      w.I64(dst);
    });
  }
  // PPR state: estimates and residuals, sorted by node, raw double bits.
  for (int64_t u = 0; u < ppr_.num_users(); ++u) {
    for (const FlatPprVector& vec : {ppr_.Estimate(u), ppr_.Residual(u)}) {
      w.I64(static_cast<int64_t>(vec.size()));
      for (const auto& [node, value] : vec) {
        w.I64(node);
        w.F64(value);
      }
    }
  }
  // WAL cursor: same accepted prefix ⇒ same next sequence number.
  w.U64(wal_.next_seq());
  const std::string& buf = w.buffer();
  return Fnv1a64(buf.data(), buf.size());
}

}  // namespace kucnet
