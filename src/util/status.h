#ifndef KUCNET_UTIL_STATUS_H_
#define KUCNET_UTIL_STATUS_H_

#include <sstream>
#include <string>
#include <utility>

/// \file
/// Recoverable-error plumbing for the fault-tolerance layer.
///
/// Every operation that can meet torn writes, truncated reads, malformed
/// input or a cancelled request — dataset and checkpoint IO, graph and
/// computation-graph construction, the forward pass — has one entry point,
/// a `Try*` function that returns a `Status` and lets the caller decide
/// between retrying, falling back to a previous snapshot, and reporting the
/// error. A caller whose inputs cannot fail checks the status in place
/// (KUC_CHECK); kucnet_cli prints it and exits non-zero.

namespace kucnet {

/// Success or an error with a human-readable message. Cheap to move.
class Status {
 public:
  /// Default-constructed status is OK.
  Status() = default;

  static Status Ok() { return Status(); }
  static Status Error(std::string message) {
    Status s;
    s.ok_ = false;
    s.message_ = std::move(message);
    return s;
  }

  bool ok() const { return ok_; }
  const std::string& message() const { return message_; }

 private:
  bool ok_ = true;
  std::string message_;
};

namespace internal_status {

/// Stream-style builder so call sites can write
/// `return ErrorStatus() << path << ":" << line << ": bad row";`.
class ErrorBuilder {
 public:
  template <typename T>
  ErrorBuilder& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }
  operator Status() const { return Status::Error(stream_.str()); }

 private:
  std::ostringstream stream_;
};

}  // namespace internal_status

/// Starts a streamed error status.
inline internal_status::ErrorBuilder ErrorStatus() {
  return internal_status::ErrorBuilder();
}

}  // namespace kucnet

/// Propagates a non-OK status to the caller.
#define KUC_RETURN_IF_ERROR(expr)                  \
  do {                                             \
    ::kucnet::Status kuc_status_tmp_ = (expr);     \
    if (!kuc_status_tmp_.ok()) return kuc_status_tmp_; \
  } while (0)

#endif  // KUCNET_UTIL_STATUS_H_
