#ifndef KUCNET_TENSOR_SERIALIZE_H_
#define KUCNET_TENSOR_SERIALIZE_H_

#include <string>
#include <vector>

#include "tensor/parameter.h"
#include "util/fs.h"
#include "util/serial.h"
#include "util/status.h"

/// \file
/// Checkpointing: save and restore a model's parameters.
///
/// Format v2 ("KUCNET_CKPT_V2"): a one-line text magic, then a binary
/// parameter block (count, then per parameter name/rows/cols followed by the
/// raw row-major doubles), closed by an integrity footer — the 8-byte tag
/// "KUCFOOT1" plus the FNV-1a 64-bit hash of every preceding byte. The
/// footer is what makes torn or bit-flipped checkpoints detectable at
/// discovery time instead of mid-load.
///
/// Saving is atomic (temp file + rename via the FileSystem seam): a failed
/// or interrupted save never destroys an existing checkpoint. Loading
/// verifies the checksum, names, and shapes, and the `Try*` tier reports
/// problems as recoverable `Status` errors; the historical aborting
/// functions remain as wrappers. Any other first line — including the
/// retired v1 magic "KUCNET_CKPT_V1" — is rejected as unsupported.

namespace kucnet {

/// Appends the v2 parameter block (no magic, no footer) to `out`. Shared
/// with the full training-snapshot writer in train/checkpoint.h.
void AppendParameterBlock(const std::vector<Parameter*>& params,
                          ByteWriter* out);

/// Reads a block written by AppendParameterBlock into `params`, verifying
/// count, names, and shapes.
Status ReadParameterBlock(ByteReader* in,
                          const std::vector<Parameter*>& params);

/// Appends the "KUCFOOT1" + FNV-1a-64 integrity footer over `buf`'s current
/// contents.
void AppendChecksumFooter(ByteWriter* buf);

/// Verifies and strips the integrity footer; on success `*payload_size` is
/// the number of bytes preceding the footer.
Status VerifyChecksumFooter(const std::string& data, size_t* payload_size);

/// Writes all parameters to `path` atomically (v2 format).
Status TrySaveParameters(const std::vector<Parameter*>& params,
                         const std::string& path, FileSystem* fs = nullptr);

/// Restores parameter values from the v2 checkpoint at `path`. The parameter
/// list must match the saved one in order, names, and shapes; a file with
/// any other magic fails with a Status naming the file and its magic.
Status TryLoadParameters(const std::vector<Parameter*>& params,
                         const std::string& path, FileSystem* fs = nullptr);

/// Aborting wrapper around TrySaveParameters.
void SaveParameters(const std::vector<Parameter*>& params,
                    const std::string& path);

/// Aborting wrapper around TryLoadParameters.
void LoadParameters(const std::vector<Parameter*>& params,
                    const std::string& path);

/// True if `path` holds a complete v2 parameter checkpoint: the magic must
/// match and the checksum footer must verify (so a torn file is rejected
/// here, not mid-load).
bool IsCheckpoint(const std::string& path, FileSystem* fs = nullptr);

}  // namespace kucnet

#endif  // KUCNET_TENSOR_SERIALIZE_H_
