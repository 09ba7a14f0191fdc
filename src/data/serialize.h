#ifndef KUCNET_DATA_SERIALIZE_H_
#define KUCNET_DATA_SERIALIZE_H_

#include <string>

#include "data/dataset.h"
#include "util/fs.h"
#include "util/status.h"

/// \file
/// On-disk dataset format, compatible in spirit with the public KGAT/KGIN
/// releases: plain text `train.txt` / `test.txt` (user item) and
/// `kg_final.txt` (head rel tail), plus `meta.txt` with the sizes and
/// `user_kg.txt` when user-side knowledge exists.
///
/// Loading validates every row against the ranges declared in `meta.txt`
/// (user/item/entity/relation ids) and reports the offending file and line —
/// an out-of-range id used to crash much later, deep inside CKG
/// construction, far from its cause. All files are written atomically.

namespace kucnet {

/// Writes the dataset into `dir` (created if missing). Each file is written
/// atomically, so an interrupted save never corrupts an existing dataset.
Status TrySaveDataset(const Dataset& dataset, const std::string& dir,
                      FileSystem* fs = nullptr);

/// Reads a dataset previously written by TrySaveDataset. Malformed rows and
/// ids outside the `meta.txt` ranges are reported with file, line, and
/// cause.
Status TryLoadDataset(const std::string& dir, Dataset* out,
                      FileSystem* fs = nullptr);

}  // namespace kucnet

#endif  // KUCNET_DATA_SERIALIZE_H_
