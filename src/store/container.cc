#include "store/container.h"

#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/serial.h"

namespace kucnet {
namespace {

// Every validation failure carries source file:line plus the container path
// and a cause, so a corrupt file is diagnosable from the Status alone.
#define KUC_STORE_ERR(path) \
  ErrorStatus() << "store/container.cc:" << __LINE__ << ": " << (path) << ": "

constexpr char kMagic[8] = {'K', 'U', 'C', 'S', 'T', 'O', 'R', '1'};
constexpr uint64_t kHeaderBytes = 40;
constexpr uint64_t kTableEntryBytes = 24;

// Section tags, in file order.
constexpr uint64_t kMetaTag = 1;
constexpr uint64_t kRowPtrTag = 2;
constexpr uint64_t kRelsTag = 3;
constexpr uint64_t kDstsTag = 4;
constexpr uint64_t kSectionCount = 4;

uint64_t Align8(uint64_t offset) { return (offset + 7) & ~uint64_t{7}; }

uint64_t ReadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

struct SectionEntry {
  uint64_t tag = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
};

std::string EncodeMeta(const Ckg& g) {
  ByteWriter w;
  w.I64(g.num_users());
  w.I64(g.num_items());
  w.I64(g.num_kg_nodes());
  w.I64(g.num_kg_relations());
  w.I64(g.num_edges());
  return w.Take();
}

struct Meta {
  int64_t num_users = 0;
  int64_t num_items = 0;
  int64_t num_kg_nodes = 0;
  int64_t num_kg_relations = 0;
  int64_t num_edges = 0;

  int64_t num_nodes() const { return num_users + num_kg_nodes; }
};

Status DecodeMeta(const std::string& path, const char* data, uint64_t length,
                  Meta* meta) {
  ByteReader r(data, length);
  Status st = r.I64(&meta->num_users);
  if (st.ok()) st = r.I64(&meta->num_items);
  if (st.ok()) st = r.I64(&meta->num_kg_nodes);
  if (st.ok()) st = r.I64(&meta->num_kg_relations);
  if (st.ok()) st = r.I64(&meta->num_edges);
  if (!st.ok() || r.remaining() != 0) {
    return KUC_STORE_ERR(path) << "malformed META section";
  }
  if (meta->num_users < 0 || meta->num_items < 0 ||
      meta->num_kg_nodes < meta->num_items || meta->num_kg_relations < 0 ||
      meta->num_edges < 0 || meta->num_nodes() > Ckg::kMaxNodes ||
      meta->num_edges > Ckg::kMaxEdges ||
      2 * (1 + meta->num_kg_relations) > Ckg::kMaxRelations) {
    return KUC_STORE_ERR(path) << "META sizes out of range (users="
                               << meta->num_users << " items="
                               << meta->num_items << " kg_nodes="
                               << meta->num_kg_nodes << " kg_relations="
                               << meta->num_kg_relations << " edges="
                               << meta->num_edges << ")";
  }
  return Status::Ok();
}

/// Parses and validates header + section table from the first
/// `header_and_table` bytes of the file. `file_bytes` bounds every section.
Status ParseHeaderAndTable(const std::string& path, const char* data,
                           uint64_t available, uint64_t file_bytes,
                           SectionEntry (*entries)[kSectionCount]) {
  if (available < kHeaderBytes) {
    return KUC_STORE_ERR(path) << "truncated header (" << available
                               << " bytes, want " << kHeaderBytes << ")";
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return KUC_STORE_ERR(path) << "bad magic (not a KUCSTOR1 container)";
  }
  const uint64_t version = ReadU64(data + 8);
  const uint64_t section_count = ReadU64(data + 16);
  const uint64_t table_offset = ReadU64(data + 24);
  const uint64_t header_checksum = ReadU64(data + 32);
  const uint64_t want_header = Fnv1a64(data, 32);
  if (header_checksum != want_header) {
    return KUC_STORE_ERR(path) << "header checksum mismatch";
  }
  if (version != kStoreFormatVersion) {
    return KUC_STORE_ERR(path) << "unsupported format version " << version
                               << " (this build reads "
                               << kStoreFormatVersion << ")";
  }
  if (section_count != kSectionCount) {
    return KUC_STORE_ERR(path) << "unexpected section count "
                               << section_count << " (want " << kSectionCount
                               << ")";
  }
  const uint64_t table_bytes = kSectionCount * kTableEntryBytes;
  if (table_offset > available || table_bytes + 8 > available - table_offset) {
    return KUC_STORE_ERR(path) << "section table out of bounds";
  }
  const char* table = data + table_offset;
  const uint64_t table_checksum = ReadU64(table + table_bytes);
  if (table_checksum != Fnv1a64(table, table_bytes)) {
    return KUC_STORE_ERR(path) << "section table checksum mismatch";
  }
  constexpr uint64_t kWantTags[kSectionCount] = {kMetaTag, kRowPtrTag,
                                                 kRelsTag, kDstsTag};
  for (uint64_t s = 0; s < kSectionCount; ++s) {
    SectionEntry& e = (*entries)[s];
    e.tag = ReadU64(table + s * kTableEntryBytes);
    e.offset = ReadU64(table + s * kTableEntryBytes + 8);
    e.length = ReadU64(table + s * kTableEntryBytes + 16);
    if (e.tag != kWantTags[s]) {
      return KUC_STORE_ERR(path) << "section " << s << " has tag " << e.tag
                                 << ", want " << kWantTags[s];
    }
    if ((e.offset & 7) != 0) {
      return KUC_STORE_ERR(path) << "section " << s
                                 << " offset not 8-aligned";
    }
    // Subtraction-only comparisons: `e.length + 8` could wrap for a crafted
    // length near UINT64_MAX, and the table checksum is trivially
    // recomputable, so wrap-around here would reach checksum/footer reads
    // far past the mapping.
    if (e.offset > file_bytes || file_bytes - e.offset < 8 ||
        e.length > file_bytes - e.offset - 8) {
      return KUC_STORE_ERR(path) << "section " << s << " (offset " << e.offset
                                 << ", length " << e.length
                                 << ") + footer exceeds file size "
                                 << file_bytes;
    }
  }
  return Status::Ok();
}

Status CheckSectionLengths(const std::string& path, const Meta& meta,
                           const SectionEntry entries[kSectionCount]) {
  const uint64_t n1 = static_cast<uint64_t>(meta.num_nodes()) + 1;
  const uint64_t e = static_cast<uint64_t>(meta.num_edges);
  const uint64_t want[kSectionCount] = {entries[0].length, n1 * 4, e * 2,
                                        e * 4};
  for (uint64_t s = 1; s < kSectionCount; ++s) {
    if (entries[s].length != want[s]) {
      return KUC_STORE_ERR(path) << "section " << s << " length "
                                 << entries[s].length << " does not match "
                                 << "META (want " << want[s] << ")";
    }
  }
  return Status::Ok();
}

Status CheckRowPtr(const std::string& path, const uint32_t* row_ptr,
                   const Meta& meta) {
  const int64_t n = meta.num_nodes();
  if (row_ptr[0] != 0) {
    return KUC_STORE_ERR(path) << "ROWPTR[0] = " << row_ptr[0] << ", want 0";
  }
  for (int64_t v = 0; v < n; ++v) {
    if (row_ptr[v + 1] < row_ptr[v]) {
      return KUC_STORE_ERR(path) << "ROWPTR not monotone at node " << v;
    }
  }
  if (static_cast<int64_t>(row_ptr[n]) != meta.num_edges) {
    return KUC_STORE_ERR(path) << "ROWPTR[" << n << "] = " << row_ptr[n]
                               << " but META says " << meta.num_edges
                               << " edges";
  }
  return Status::Ok();
}

}  // namespace

Status SaveCkgContainer(FileSystem& fs, const std::string& path,
                        const Ckg& graph) {
  KUC_TRACE_SPAN("store.container_save");
  const auto row_ptr = graph.raw_row_ptr();
  const auto rel = graph.raw_rel();
  const auto dst = graph.raw_dst();
  if (row_ptr.data() == nullptr) {
    return KUC_STORE_ERR(path) << "cannot save a graph with no storage";
  }
  const std::string meta = EncodeMeta(graph);

  const struct {
    uint64_t tag;
    const char* data;
    uint64_t length;
  } sections[kSectionCount] = {
      {kMetaTag, meta.data(), meta.size()},
      {kRowPtrTag, reinterpret_cast<const char*>(row_ptr.data()),
       row_ptr.size_bytes()},
      {kRelsTag, reinterpret_cast<const char*>(rel.data()),
       rel.size_bytes()},
      {kDstsTag, reinterpret_cast<const char*>(dst.data()),
       dst.size_bytes()},
  };

  // Lay out: header, table (+footer), then 8-aligned sections (+footers).
  const uint64_t table_offset = kHeaderBytes;
  const uint64_t table_bytes = kSectionCount * kTableEntryBytes;
  uint64_t cursor = Align8(table_offset + table_bytes + 8);
  SectionEntry entries[kSectionCount];
  for (uint64_t s = 0; s < kSectionCount; ++s) {
    entries[s] = {sections[s].tag, cursor, sections[s].length};
    cursor = Align8(cursor + sections[s].length + 8);
  }
  const uint64_t file_bytes = cursor;

  std::string file(file_bytes, '\0');
  const auto put_u64 = [&file](uint64_t offset, uint64_t v) {
    std::memcpy(file.data() + offset, &v, sizeof(v));
  };
  std::memcpy(file.data(), kMagic, sizeof(kMagic));
  put_u64(8, kStoreFormatVersion);
  put_u64(16, kSectionCount);
  put_u64(24, table_offset);
  put_u64(32, Fnv1a64(file.data(), 32));
  for (uint64_t s = 0; s < kSectionCount; ++s) {
    const uint64_t at = table_offset + s * kTableEntryBytes;
    put_u64(at, entries[s].tag);
    put_u64(at + 8, entries[s].offset);
    put_u64(at + 16, entries[s].length);
  }
  put_u64(table_offset + table_bytes,
          Fnv1a64(file.data() + table_offset, table_bytes));
  for (uint64_t s = 0; s < kSectionCount; ++s) {
    if (sections[s].length > 0) {
      std::memcpy(file.data() + entries[s].offset, sections[s].data,
                  sections[s].length);
    }
    put_u64(entries[s].offset + entries[s].length,
            Fnv1a64(sections[s].data, sections[s].length));
  }
  return AtomicWriteFile(fs, path, file);
}

Status LoadCkgContainer(FileSystem& fs, const std::string& path,
                        const StoreLoadOptions& options, Ckg* out,
                        StoreLoadStats* stats) {
  KUC_TRACE_SPAN("store.container_load");
  StoreLoadStats local_stats;
  StoreLoadStats& st = stats != nullptr ? *stats : local_stats;
  st = StoreLoadStats();

  if (options.use_mmap) {
    MappedFile mapping;
    KUC_RETURN_IF_ERROR(fs.MapReadOnly(path, &mapping));
    const char* base = mapping.data();
    const uint64_t size = mapping.size();
    SectionEntry entries[kSectionCount];
    KUC_RETURN_IF_ERROR(
        ParseHeaderAndTable(path, base, size, size, &entries));
    Meta meta;
    const SectionEntry& me = entries[0];
    if (ReadU64(base + me.offset + me.length) !=
        Fnv1a64(base + me.offset, me.length)) {
      return KUC_STORE_ERR(path) << "META checksum mismatch";
    }
    KUC_RETURN_IF_ERROR(DecodeMeta(path, base + me.offset, me.length, &meta));
    KUC_RETURN_IF_ERROR(CheckSectionLengths(path, meta, entries));
    // ROWPTR is always verified: it is small relative to the edge arrays
    // and every accessor indexes through it.
    const SectionEntry& rp = entries[1];
    if (ReadU64(base + rp.offset + rp.length) !=
        Fnv1a64(base + rp.offset, rp.length)) {
      return KUC_STORE_ERR(path) << "ROWPTR checksum mismatch";
    }
    const auto* row_ptr = reinterpret_cast<const uint32_t*>(base + rp.offset);
    KUC_RETURN_IF_ERROR(CheckRowPtr(path, row_ptr, meta));
    if (options.verify_checksums) {
      for (uint64_t s = 2; s < kSectionCount; ++s) {
        const SectionEntry& e = entries[s];
        if (ReadU64(base + e.offset + e.length) !=
            Fnv1a64(base + e.offset, e.length)) {
          return KUC_STORE_ERR(path)
                 << (s == 2 ? "RELS" : "DSTS") << " checksum mismatch";
        }
      }
      st.sections_verified = true;
    }
    st.mmap_backed = mapping.is_mmap();
    st.file_bytes = size;
    const auto* rel = reinterpret_cast<const uint16_t*>(base +
                                                        entries[2].offset);
    const auto* dst = reinterpret_cast<const uint32_t*>(base +
                                                        entries[3].offset);
    out->AdoptMapped(meta.num_users, meta.num_items, meta.num_kg_nodes,
                     meta.num_kg_relations, meta.num_edges,
                     std::move(mapping), row_ptr, rel, dst);
  } else {
    // Full read through bounded range reads: header + table first, then one
    // ReadFileRange per section — never a whole-file string.
    uint64_t size = 0;
    KUC_RETURN_IF_ERROR(fs.FileSize(path, &size));
    const uint64_t prefix_bytes =
        kHeaderBytes + kSectionCount * kTableEntryBytes + 8;
    if (size < prefix_bytes) {
      return KUC_STORE_ERR(path) << "truncated header (" << size
                                 << " bytes, want at least " << prefix_bytes
                                 << ")";
    }
    std::string prefix;
    KUC_RETURN_IF_ERROR(fs.ReadFileRange(path, 0, prefix_bytes, &prefix));
    if (prefix.size() != prefix_bytes) {
      return KUC_STORE_ERR(path) << "short header read (" << prefix.size()
                                 << " of " << prefix_bytes << " bytes)";
    }
    SectionEntry entries[kSectionCount];
    KUC_RETURN_IF_ERROR(ParseHeaderAndTable(path, prefix.data(),
                                            prefix.size(), size, &entries));
    std::string section[kSectionCount];
    for (uint64_t s = 0; s < kSectionCount; ++s) {
      const SectionEntry& e = entries[s];
      KUC_RETURN_IF_ERROR(
          fs.ReadFileRange(path, e.offset, e.length + 8, &section[s]));
      if (section[s].size() != e.length + 8) {
        return KUC_STORE_ERR(path) << "short section " << s << " read ("
                                   << section[s].size() << " of "
                                   << e.length + 8 << " bytes)";
      }
      if (ReadU64(section[s].data() + e.length) !=
          Fnv1a64(section[s].data(), e.length)) {
        return KUC_STORE_ERR(path) << "section " << s
                                   << " checksum mismatch";
      }
    }
    st.sections_verified = true;
    Meta meta;
    KUC_RETURN_IF_ERROR(
        DecodeMeta(path, section[0].data(), entries[0].length, &meta));
    KUC_RETURN_IF_ERROR(CheckSectionLengths(path, meta, entries));
    const int64_t n = meta.num_nodes();
    std::unique_ptr<uint32_t[]> row_ptr(new uint32_t[n + 1]);
    std::memcpy(row_ptr.get(), section[1].data(), entries[1].length);
    KUC_RETURN_IF_ERROR(CheckRowPtr(path, row_ptr.get(), meta));
    const int64_t e = meta.num_edges;
    std::unique_ptr<uint16_t[]> rel(new uint16_t[e > 0 ? e : 1]);
    std::unique_ptr<uint32_t[]> dst(new uint32_t[e > 0 ? e : 1]);
    std::memcpy(rel.get(), section[2].data(), entries[2].length);
    std::memcpy(dst.get(), section[3].data(), entries[3].length);
    st.mmap_backed = false;
    st.file_bytes = size;
    out->num_users_ = meta.num_users;
    out->num_items_ = meta.num_items;
    out->num_kg_nodes_ = meta.num_kg_nodes;
    out->num_kg_relations_ = meta.num_kg_relations;
    out->num_edges_ = meta.num_edges;
    out->mapping_ = MappedFile();
    out->row_ptr_store_ = std::move(row_ptr);
    out->rel_store_ = std::move(rel);
    out->dst_store_ = std::move(dst);
    out->row_ptr_ = out->row_ptr_store_.get();
    out->rel_ = out->rel_store_.get();
    out->dst_ = out->dst_store_.get();
  }

  KUC_OBS_GAUGE_SET("store.bytes_resident", out->bytes_resident());
  KUC_OBS_GAUGE_SET("store.edges", out->num_edges());
  KUC_OBS_GAUGE_SET("store.mmap_hit", st.mmap_backed ? 1 : 0);
  return Status::Ok();
}

}  // namespace kucnet
