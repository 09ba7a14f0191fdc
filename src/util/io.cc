#include "util/io.h"

#include <fstream>
#include <sstream>

namespace kucnet {

Status TryReadIntTable(const std::string& path, int width,
                       std::vector<std::vector<int64_t>>* rows,
                       std::vector<int64_t>* line_numbers, FileSystem* fs) {
  rows->clear();
  if (line_numbers != nullptr) line_numbers->clear();
  std::string content;
  KUC_RETURN_IF_ERROR(FsOrDefault(fs).ReadFile(path, &content));
  std::istringstream in(content);
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::vector<int64_t> row;
    row.reserve(width);
    int64_t value = 0;
    while (ss >> value) row.push_back(value);
    if (row.empty() && ss.eof()) continue;  // whitespace-only line
    if (!ss.eof()) {
      std::string bad;
      ss.clear();
      ss >> bad;
      return ErrorStatus() << path << ":" << line_no
                           << ": non-integer token '" << bad << "'";
    }
    if (static_cast<int>(row.size()) != width) {
      return ErrorStatus() << path << ":" << line_no << ": expected " << width
                           << " fields, got " << row.size();
    }
    rows->push_back(std::move(row));
    if (line_numbers != nullptr) line_numbers->push_back(line_no);
  }
  return Status::Ok();
}

Status TryWriteIntTable(const std::string& path,
                        const std::vector<std::vector<int64_t>>& rows,
                        FileSystem* fs) {
  std::ostringstream out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out << ' ';
      out << row[i];
    }
    out << '\n';
  }
  return AtomicWriteFile(FsOrDefault(fs), path, out.str());
}

Status TryReadPairs(const std::string& path,
                    std::vector<std::array<int64_t, 2>>* pairs,
                    std::vector<int64_t>* line_numbers, FileSystem* fs) {
  pairs->clear();
  std::vector<std::vector<int64_t>> rows;
  KUC_RETURN_IF_ERROR(TryReadIntTable(path, 2, &rows, line_numbers, fs));
  pairs->reserve(rows.size());
  for (const auto& row : rows) pairs->push_back({row[0], row[1]});
  return Status::Ok();
}

Status TryReadTriplets(const std::string& path,
                       std::vector<std::array<int64_t, 3>>* triplets,
                       std::vector<int64_t>* line_numbers, FileSystem* fs) {
  triplets->clear();
  std::vector<std::vector<int64_t>> rows;
  KUC_RETURN_IF_ERROR(TryReadIntTable(path, 3, &rows, line_numbers, fs));
  triplets->reserve(rows.size());
  for (const auto& row : rows) triplets->push_back({row[0], row[1], row[2]});
  return Status::Ok();
}

Status TryWritePairs(const std::string& path,
                     const std::vector<std::array<int64_t, 2>>& pairs,
                     FileSystem* fs) {
  std::vector<std::vector<int64_t>> rows;
  rows.reserve(pairs.size());
  for (const auto& p : pairs) rows.push_back({p[0], p[1]});
  return TryWriteIntTable(path, rows, fs);
}

Status TryWriteTriplets(const std::string& path,
                        const std::vector<std::array<int64_t, 3>>& triplets,
                        FileSystem* fs) {
  std::vector<std::vector<int64_t>> rows;
  rows.reserve(triplets.size());
  for (const auto& t : triplets) rows.push_back({t[0], t[1], t[2]});
  return TryWriteIntTable(path, rows, fs);
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

}  // namespace kucnet
