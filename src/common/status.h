// Status and Result<T>: the error-handling backbone of xmlrdb.
//
// The library does not throw exceptions. Every fallible operation returns a
// Status (no payload) or a Result<T> (payload or error). The style follows
// arrow::Status / absl::StatusOr.

#ifndef XMLRDB_COMMON_STATUS_H_
#define XMLRDB_COMMON_STATUS_H_

#include <cassert>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace xmlrdb {

/// Machine-readable error category.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kParseError,       ///< malformed XML / DTD / SQL / XPath input
  kNotFound,         ///< missing table, column, index, document, ...
  kAlreadyExists,    ///< duplicate table/index/document name
  kOutOfRange,       ///< position past end, numeric overflow
  kTypeError,        ///< value used with an incompatible relational type
  kUnsupported,      ///< feature intentionally outside the implemented subset
  kConstraintError,  ///< schema constraint violated during DML
  kIoError,          ///< storage I/O failure (real or fault-injected)
  kTxnError,         ///< transaction/snapshot conflict (a table dropped
                     ///< under an open read snapshot); retryable
  kInternal,         ///< invariant breakage inside the engine
};

/// Human-readable name for a StatusCode ("ParseError", ...).
const char* StatusCodeName(StatusCode code);

/// Result of a fallible operation with no payload.
///
/// Ok statuses are cheap (a null pointer); error statuses carry a code and a
/// message on the heap. Statuses are copyable and movable.
class Status {
 public:
  Status() = default;  // OK

  Status(StatusCode code, std::string message)
      : rep_(std::make_shared<Rep>(Rep{code, std::move(message)})) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status ConstraintError(std::string msg) {
    return Status(StatusCode::kConstraintError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status TxnError(std::string msg) {
    return Status(StatusCode::kTxnError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->message : kEmpty;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// Prepends context to an error message; no-op on OK statuses.
  Status WithContext(const std::string& context) const;

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  std::shared_ptr<Rep> rep_;  // null <=> OK
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Payload-or-error. `ok()` implies the payload is present.
template <typename T>
class Result {
 public:
  Result(T value) : state_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : state_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(state_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(state_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(state_);
  }

  T& value() & {
    assert(ok());
    return std::get<T>(state_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(state_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(state_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Value if present, `fallback` otherwise.
  T value_or(T fallback) const {
    return ok() ? std::get<T>(state_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> state_;
};

// Early-return helpers, arrow-style.
#define XMLRDB_CONCAT_IMPL(a, b) a##b
#define XMLRDB_CONCAT(a, b) XMLRDB_CONCAT_IMPL(a, b)

/// Evaluates `expr` (a Status); returns it from the enclosing function on error.
#define RETURN_IF_ERROR(expr)                        \
  do {                                               \
    ::xmlrdb::Status _st = (expr);                   \
    if (!_st.ok()) return _st;                       \
  } while (0)

/// Evaluates `expr` (a Result<T>); on error returns its status, otherwise
/// assigns the payload to `lhs` (which may include a declaration).
#define ASSIGN_OR_RETURN(lhs, expr) \
  ASSIGN_OR_RETURN_IMPL(XMLRDB_CONCAT(_res_, __LINE__), lhs, expr)

#define ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                          \
  if (!tmp.ok()) return tmp.status();         \
  lhs = std::move(tmp).value();

}  // namespace xmlrdb

#endif  // XMLRDB_COMMON_STATUS_H_
