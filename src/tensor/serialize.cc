#include "tensor/serialize.h"

#include <cstring>

namespace kucnet {

namespace {

constexpr char kMagicV2[] = "KUCNET_CKPT_V2";
constexpr char kFooterTag[] = "KUCFOOT1";  // 8 bytes, no terminator on disk
constexpr size_t kFooterSize = 8 + sizeof(uint64_t);

/// First line of `data` (without the newline), or "" if there is none.
std::string FirstLine(const std::string& data) {
  const size_t nl = data.find('\n');
  return nl == std::string::npos ? std::string() : data.substr(0, nl);
}

Status ParseV2(const std::string& data,
               const std::vector<Parameter*>& params,
               const std::string& path) {
  size_t payload_size = 0;
  const Status checked = VerifyChecksumFooter(data, &payload_size);
  if (!checked.ok()) {
    return ErrorStatus() << path << ": " << checked.message();
  }
  const size_t header = std::strlen(kMagicV2) + 1;  // magic + '\n'
  ByteReader in(data.data() + header, payload_size - header);
  const Status read = ReadParameterBlock(&in, params);
  if (!read.ok()) return ErrorStatus() << path << ": " << read.message();
  return Status::Ok();
}

}  // namespace

void AppendParameterBlock(const std::vector<Parameter*>& params,
                          ByteWriter* out) {
  out->U64(params.size());
  for (const Parameter* p : params) {
    out->Str(p->name());
    out->I64(p->rows());
    out->I64(p->cols());
    out->Bytes(p->value().data(),
               static_cast<size_t>(p->value().size()) * sizeof(real_t));
  }
}

Status ReadParameterBlock(ByteReader* in,
                          const std::vector<Parameter*>& params) {
  uint64_t count = 0;
  KUC_RETURN_IF_ERROR(in->U64(&count));
  if (count != params.size()) {
    return ErrorStatus() << "checkpoint has a different number of parameters ["
                         << count << " vs " << params.size() << "]";
  }
  for (Parameter* p : params) {
    std::string name;
    int64_t rows = 0, cols = 0;
    KUC_RETURN_IF_ERROR(in->Str(&name));
    KUC_RETURN_IF_ERROR(in->I64(&rows));
    KUC_RETURN_IF_ERROR(in->I64(&cols));
    if (name != p->name()) {
      return ErrorStatus() << "parameter order/name mismatch [" << name
                           << " vs " << p->name() << "]";
    }
    if (rows != p->rows() || cols != p->cols()) {
      return ErrorStatus() << "shape mismatch for " << name << " [" << rows
                           << "x" << cols << " vs " << p->rows() << "x"
                           << p->cols() << "]";
    }
    KUC_RETURN_IF_ERROR(
        in->Raw(p->value().data(),
                static_cast<size_t>(p->value().size()) * sizeof(real_t),
                name.c_str()));
  }
  return Status::Ok();
}

void AppendChecksumFooter(ByteWriter* buf) {
  const uint64_t hash = Fnv1a64(buf->buffer().data(), buf->buffer().size());
  buf->Bytes(kFooterTag, 8);
  buf->U64(hash);
}

Status VerifyChecksumFooter(const std::string& data, size_t* payload_size) {
  if (data.size() < kFooterSize) {
    return ErrorStatus() << "file too small for an integrity footer ("
                         << data.size() << " bytes)";
  }
  const size_t payload = data.size() - kFooterSize;
  if (std::memcmp(data.data() + payload, kFooterTag, 8) != 0) {
    return Status::Error(
        "missing integrity footer (torn or truncated file?)");
  }
  uint64_t stored = 0;
  std::memcpy(&stored, data.data() + payload + 8, sizeof(stored));
  const uint64_t actual = Fnv1a64(data.data(), payload);
  if (stored != actual) {
    return Status::Error("checksum mismatch (corrupt file)");
  }
  *payload_size = payload;
  return Status::Ok();
}

Status TrySaveParameters(const std::vector<Parameter*>& params,
                         const std::string& path, FileSystem* fs) {
  ByteWriter out;
  for (const Parameter* p : params) {
    if (p->name().find_first_of(" \n") != std::string::npos) {
      return ErrorStatus() << "parameter name must not contain whitespace: "
                           << p->name();
    }
  }
  out.Bytes(kMagicV2, std::strlen(kMagicV2));
  out.U8('\n');
  AppendParameterBlock(params, &out);
  AppendChecksumFooter(&out);
  return AtomicWriteFile(FsOrDefault(fs), path, out.buffer());
}

Status TryLoadParameters(const std::vector<Parameter*>& params,
                         const std::string& path, FileSystem* fs) {
  std::string data;
  KUC_RETURN_IF_ERROR(FsOrDefault(fs).ReadFile(path, &data));
  const std::string magic = FirstLine(data);
  if (magic != kMagicV2) {
    return ErrorStatus() << path << ": unsupported checkpoint magic \""
                         << magic.substr(0, 32) << "\" (expected "
                         << kMagicV2 << ")";
  }
  return ParseV2(data, params, path);
}

bool IsCheckpoint(const std::string& path, FileSystem* fs) {
  std::string data;
  if (!FsOrDefault(fs).ReadFile(path, &data).ok()) return false;
  size_t payload = 0;
  return FirstLine(data) == kMagicV2 &&
         VerifyChecksumFooter(data, &payload).ok();
}

}  // namespace kucnet
