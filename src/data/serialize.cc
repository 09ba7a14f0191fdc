#include "data/serialize.h"

#include <sstream>

#include "util/io.h"

namespace kucnet {

namespace {

/// Validates `user item` rows against the meta ranges, reporting the exact
/// file line of the first offending row.
Status ValidatePairs(const std::string& path,
                     const std::vector<std::array<int64_t, 2>>& pairs,
                     const std::vector<int64_t>& lines, int64_t num_users,
                     int64_t num_items) {
  for (size_t k = 0; k < pairs.size(); ++k) {
    const auto& [user, item] = pairs[k];
    if (user < 0 || user >= num_users) {
      return ErrorStatus() << path << ":" << lines[k] << ": user id " << user
                           << " out of range [0, " << num_users << ")";
    }
    if (item < 0 || item >= num_items) {
      return ErrorStatus() << path << ":" << lines[k] << ": item id " << item
                           << " out of range [0, " << num_items << ")";
    }
  }
  return Status::Ok();
}

/// Validates `head rel tail` rows; head/tail against [0, num_nodes) and rel
/// against [0, num_relations).
Status ValidateTriplets(const std::string& path,
                        const std::vector<std::array<int64_t, 3>>& triplets,
                        const std::vector<int64_t>& lines, int64_t num_nodes,
                        int64_t num_relations, const char* node_kind) {
  for (size_t k = 0; k < triplets.size(); ++k) {
    const auto& [head, rel, tail] = triplets[k];
    if (head < 0 || head >= num_nodes) {
      return ErrorStatus() << path << ":" << lines[k] << ": head "
                           << node_kind << " id " << head
                           << " out of range [0, " << num_nodes << ")";
    }
    if (tail < 0 || tail >= num_nodes) {
      return ErrorStatus() << path << ":" << lines[k] << ": tail "
                           << node_kind << " id " << tail
                           << " out of range [0, " << num_nodes << ")";
    }
    if (rel < 0 || rel >= num_relations) {
      return ErrorStatus() << path << ":" << lines[k] << ": relation id "
                           << rel << " out of range [0, " << num_relations
                           << ")";
    }
  }
  return Status::Ok();
}

}  // namespace

Status TrySaveDataset(const Dataset& dataset, const std::string& dir,
                      FileSystem* fs) {
  FileSystem& f = FsOrDefault(fs);
  KUC_RETURN_IF_ERROR(f.MakeDirs(dir));
  KUC_RETURN_IF_ERROR(TryWritePairs(dir + "/train.txt", dataset.train, fs));
  KUC_RETURN_IF_ERROR(TryWritePairs(dir + "/test.txt", dataset.test, fs));
  KUC_RETURN_IF_ERROR(TryWriteTriplets(dir + "/kg_final.txt", dataset.kg, fs));
  if (!dataset.user_kg.empty()) {
    KUC_RETURN_IF_ERROR(
        TryWriteTriplets(dir + "/user_kg.txt", dataset.user_kg, fs));
  }
  std::ostringstream meta;
  meta << "# name kind num_users num_items num_kg_nodes num_kg_relations\n";
  meta << dataset.name << ' ' << static_cast<int>(dataset.kind) << ' '
       << dataset.num_users << ' ' << dataset.num_items << ' '
       << dataset.num_kg_nodes << ' ' << dataset.num_kg_relations << '\n';
  return AtomicWriteFile(f, dir + "/meta.txt", meta.str());
}

Status TryLoadDataset(const std::string& dir, Dataset* out, FileSystem* fs) {
  Dataset d;
  const std::string meta_path = dir + "/meta.txt";
  std::string meta_content;
  KUC_RETURN_IF_ERROR(FsOrDefault(fs).ReadFile(meta_path, &meta_content));
  std::istringstream meta(meta_content);
  std::string line;
  std::getline(meta, line);  // header comment
  int kind = 0;
  meta >> d.name >> kind >> d.num_users >> d.num_items >> d.num_kg_nodes >>
      d.num_kg_relations;
  if (meta.fail()) {
    return ErrorStatus() << meta_path << ": malformed meta line";
  }
  if (d.name.empty() || kind < 0 ||
      kind > static_cast<int>(SplitKind::kTemporal)) {
    return ErrorStatus() << meta_path << ": malformed name/kind";
  }
  if (d.num_users < 0 || d.num_items < 0 || d.num_kg_relations < 0 ||
      d.num_kg_nodes < d.num_items) {
    return ErrorStatus() << meta_path
                         << ": inconsistent sizes (need num_users, "
                            "num_items, num_kg_relations >= 0 and "
                            "num_kg_nodes >= num_items)";
  }
  // The graph holds u32 node ids and u16 relation ids (graph/ckg.h): reject
  // sizes it cannot hold before anything is sized from them.
  if (d.num_users > Ckg::kMaxNodes ||
      d.num_kg_nodes > Ckg::kMaxNodes - d.num_users) {
    return ErrorStatus() << meta_path << ": num_users + num_kg_nodes = "
                         << d.num_users << " + " << d.num_kg_nodes
                         << " nodes exceed the graph's " << Ckg::kMaxNodes;
  }
  if (d.num_kg_relations > Ckg::kMaxRelations / 2 - 1) {
    return ErrorStatus() << meta_path << ": " << d.num_kg_relations
                         << " KG relations give 2 * (1 + num_kg_relations) "
                            "relation ids, over the graph's "
                         << Ckg::kMaxRelations;
  }
  d.kind = static_cast<SplitKind>(kind);

  std::vector<int64_t> lines;
  const std::string train_path = dir + "/train.txt";
  KUC_RETURN_IF_ERROR(TryReadPairs(train_path, &d.train, &lines, fs));
  KUC_RETURN_IF_ERROR(
      ValidatePairs(train_path, d.train, lines, d.num_users, d.num_items));

  const std::string test_path = dir + "/test.txt";
  KUC_RETURN_IF_ERROR(TryReadPairs(test_path, &d.test, &lines, fs));
  KUC_RETURN_IF_ERROR(
      ValidatePairs(test_path, d.test, lines, d.num_users, d.num_items));

  const std::string kg_path = dir + "/kg_final.txt";
  KUC_RETURN_IF_ERROR(TryReadTriplets(kg_path, &d.kg, &lines, fs));
  KUC_RETURN_IF_ERROR(ValidateTriplets(kg_path, d.kg, lines, d.num_kg_nodes,
                                       d.num_kg_relations, "entity"));

  const std::string user_kg_path = dir + "/user_kg.txt";
  if (FsOrDefault(fs).Exists(user_kg_path)) {
    KUC_RETURN_IF_ERROR(TryReadTriplets(user_kg_path, &d.user_kg, &lines, fs));
    // User-side triplets connect users to users (see Ckg::TryBuild).
    KUC_RETURN_IF_ERROR(ValidateTriplets(user_kg_path, d.user_kg, lines,
                                         d.num_users, d.num_kg_relations,
                                         "user"));
  }
  // Every train interaction and triplet becomes two directed edges.
  const int64_t directed_edges = 2 * static_cast<int64_t>(
      d.train.size() + d.kg.size() + d.user_kg.size());
  if (directed_edges > Ckg::kMaxEdges) {
    return ErrorStatus() << dir << ": " << directed_edges
                         << " directed edges exceed the graph's "
                         << Ckg::kMaxEdges;
  }
  *out = std::move(d);
  return Status::Ok();
}

}  // namespace kucnet
