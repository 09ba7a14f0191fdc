#ifndef KUCNET_UTIL_IO_H_
#define KUCNET_UTIL_IO_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/fs.h"
#include "util/status.h"

/// \file
/// Plain-text (whitespace-separated) I/O for interaction lists and KG
/// triplet files, matching the format used by the public KGAT/KGIN/KUCNet
/// dataset releases: one `head relation tail` (or `user item`) row per line.
///
/// Readers and writers return a `Status` whose message names the file, line
/// number, and cause of the first malformed row — the tier the
/// fault-tolerant loaders build on. All writers go through
/// `AtomicWriteFile`, so an interrupted save never destroys an existing file.

namespace kucnet {

/// Reads rows of exactly `width` integers per line; skips blank lines and
/// lines starting with '#'. On a malformed row returns an error naming
/// `path`, the 1-based line number, and the cause. When `line_numbers` is
/// non-null it receives the source line of each returned row, so callers can
/// report their own per-row validation errors with exact locations.
Status TryReadIntTable(const std::string& path, int width,
                       std::vector<std::vector<int64_t>>* rows,
                       std::vector<int64_t>* line_numbers = nullptr,
                       FileSystem* fs = nullptr);

/// Writes rows of integers, one line per row, space-separated. The write is
/// atomic: on failure any existing file at `path` is left intact.
Status TryWriteIntTable(const std::string& path,
                        const std::vector<std::vector<int64_t>>& rows,
                        FileSystem* fs = nullptr);

/// Reads `user item` pairs.
Status TryReadPairs(const std::string& path,
                    std::vector<std::array<int64_t, 2>>* pairs,
                    std::vector<int64_t>* line_numbers = nullptr,
                    FileSystem* fs = nullptr);

/// Reads `head relation tail` triplets.
Status TryReadTriplets(const std::string& path,
                       std::vector<std::array<int64_t, 3>>* triplets,
                       std::vector<int64_t>* line_numbers = nullptr,
                       FileSystem* fs = nullptr);

/// Writes `user item` pairs (atomically; see TryWriteIntTable).
Status TryWritePairs(const std::string& path,
                     const std::vector<std::array<int64_t, 2>>& pairs,
                     FileSystem* fs = nullptr);

/// Writes `head relation tail` triplets (atomically).
Status TryWriteTriplets(const std::string& path,
                        const std::vector<std::array<int64_t, 3>>& triplets,
                        FileSystem* fs = nullptr);

/// True if the file exists and is readable.
bool FileExists(const std::string& path);

}  // namespace kucnet

#endif  // KUCNET_UTIL_IO_H_
