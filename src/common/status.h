// Minimal Status / StatusOr error-handling vocabulary.
//
// Errors must cross asynchronous boundaries (binding -> library -> Correctable callback),
// so we use value-carried status rather than exceptions, following the error-code style
// common in storage systems.
#ifndef ICG_COMMON_STATUS_H_
#define ICG_COMMON_STATUS_H_

#include <cassert>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace icg {

enum class StatusCode {
  kOk = 0,
  kTimeout,          // operation did not complete within its deadline
  kUnavailable,      // not enough live replicas / no quorum / leader unreachable
  kOverloaded,       // admission control shed the request (backpressure); retry later
  kNotFound,         // key or queue element does not exist
  kConflict,         // CAS-style conflict (e.g., concurrent dequeue won)
  kInvalidArgument,  // malformed request (empty key, bad consistency level, ...)
  kAborted,          // speculation aborted or operation cancelled
  kInternal,         // invariant violation inside the storage stack
};

// Human-readable name of a status code ("OK", "TIMEOUT", ...).
const char* StatusCodeName(StatusCode code);

// A cheap, copyable success-or-error result. OK statuses carry no message.
class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status Timeout(std::string m = "timeout") {
    return Status(StatusCode::kTimeout, std::move(m));
  }
  static Status Unavailable(std::string m) { return Status(StatusCode::kUnavailable, std::move(m)); }
  static Status Overloaded(std::string m) { return Status(StatusCode::kOverloaded, std::move(m)); }
  static Status NotFound(std::string m) { return Status(StatusCode::kNotFound, std::move(m)); }
  static Status Conflict(std::string m) { return Status(StatusCode::kConflict, std::move(m)); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status Aborted(std::string m) { return Status(StatusCode::kAborted, std::move(m)); }
  static Status Internal(std::string m) { return Status(StatusCode::kInternal, std::move(m)); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

// Whether a failed operation is worth re-submitting unchanged: transient conditions
// (deadline, missing quorum, admission-control shed) pass; semantic failures do not.
inline bool IsRetryable(const Status& s) {
  return s.code() == StatusCode::kTimeout || s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kOverloaded;
}

// Holds either a value or a non-OK Status. Accessing the value of an error result is a
// programming bug and asserts in debug builds.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : rep_(std::move(value)) {}          // NOLINT: implicit by design
  StatusOr(Status status) : rep_(std::move(status)) {    // NOLINT: implicit by design
    assert(!std::get<Status>(rep_).ok() && "OK status must carry a value");
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  Status status() const {
    if (ok()) {
      return Status::Ok();
    }
    return std::get<Status>(rep_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(rep_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(rep_);
  }
  // By value, not T&&: `const T& v = f().value();` then extends the moved-out value's
  // lifetime instead of binding to a member of the dying temporary.
  T value() && {
    assert(ok());
    return std::get<T>(std::move(rep_));
  }

  const T& value_or(const T& fallback) const {
    return ok() ? std::get<T>(rep_) : fallback;
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> rep_;
};

}  // namespace icg

#endif  // ICG_COMMON_STATUS_H_
