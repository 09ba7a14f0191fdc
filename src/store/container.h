#ifndef KUCNET_STORE_CONTAINER_H_
#define KUCNET_STORE_CONTAINER_H_

#include <cstdint>
#include <string>

#include "graph/ckg.h"
#include "util/fs.h"
#include "util/status.h"

/// \file
/// KUCSTOR1: the versioned, checksummed on-disk container for a Ckg
/// (DESIGN.md §5g).
///
/// Layout (all integers host-endian, like checkpoints):
///
///   [ 0..8)   magic "KUCSTOR1"
///   [ 8..16)  u64 format version (1)
///   [16..24)  u64 section count
///   [24..32)  u64 section-table offset
///   [32..40)  u64 FNV-1a of bytes [0..32)            (header footer)
///   table:    count x { u64 tag, u64 offset, u64 length }
///             u64 FNV-1a of the table bytes          (table footer)
///   sections: payload bytes at 8-aligned offsets, each immediately
///             followed by a u64 FNV-1a of the payload (section footer)
///
/// Sections: META (scalar sizes), ROWPTR (u32[n+1]), RELS (u16[E]),
/// DSTS (u32[E]). Section offsets are 8-aligned so a mapped file can be
/// reinterpreted as typed arrays with zero copies.
///
/// Writes go through `AtomicWriteFile` (tmp + flush + rename), so a crashed
/// write never leaves a half-container at the target path. Loads validate
/// header, table, META and ROWPTR eagerly; the big edge sections are
/// checksum-verified when `verify_checksums` is set (full reads always
/// verify). A *lazy* mmap load (`verify_checksums = false`) is the fast
/// path the scale bench measures: the kernel pages edges in on first touch
/// and nothing scans the file up front — use it only on files this process
/// (or its trusted pipeline) wrote. Every validation failure is a
/// recoverable Status carrying source file:line and a cause, never a crash.

namespace kucnet {

/// Container format version this build writes and reads.
inline constexpr uint64_t kStoreFormatVersion = 1;

/// How LoadCkgContainer acquires and validates the file.
struct StoreLoadOptions {
  /// Map the file (zero-copy, lazy paging) instead of range-reading it into
  /// owned arrays. Emulating filesystems hand back a heap copy through the
  /// same seam.
  bool use_mmap = true;
  /// Verify the RELS/DSTS section checksums up front. Header, table, META
  /// and ROWPTR are always verified. Full reads (use_mmap = false) always
  /// verify everything regardless of this flag.
  bool verify_checksums = true;
};

/// What a load actually did (for benches and the obs gauges).
struct StoreLoadStats {
  bool mmap_backed = false;       ///< arrays point into a real kernel mapping
  bool sections_verified = false; ///< RELS/DSTS checksums were checked
  uint64_t file_bytes = 0;
};

/// Serializes `graph` into a KUCSTOR1 container at `path` via
/// AtomicWriteFile.
Status SaveCkgContainer(FileSystem& fs, const std::string& path,
                        const Ckg& graph);

/// Loads a container written by SaveCkgContainer. On success `*out` either
/// borrows the mapping (use_mmap) or owns freshly-read arrays. Emits the
/// `store.bytes_resident` / `store.edges` / `store.mmap_hit` gauges and a
/// `store.container_load` trace span.
Status LoadCkgContainer(FileSystem& fs, const std::string& path,
                        const StoreLoadOptions& options, Ckg* out,
                        StoreLoadStats* stats = nullptr);

}  // namespace kucnet

#endif  // KUCNET_STORE_CONTAINER_H_
