// Lightweight Status / Result types. The protocol code is exception-free on
// its hot paths; errors flow through these values.
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace recraft {

enum class Code : uint8_t {
  kOk = 0,
  kNotLeader,        // request must go to the cluster leader
  kNotFound,         // key or object absent
  kRejected,         // precondition (P1/P2'/P3) or validation failure
  kBusy,             // an incompatible operation is in flight
  kTimeout,          // operation did not finish within its deadline
  kUnavailable,      // no quorum reachable / node down
  kConflict,         // lost to a concurrent update (e.g. stale term)
  kOutOfRange,       // key outside this cluster's range
  kInternal,         // invariant violation: indicates a bug
  kWrongShard,       // request routed to a group that does not serve the key;
                     // the reply carries the group's serving range and epoch
                     // so the router can detect a stale shard map
};

/// The last enumerator: decoders reject a code byte beyond it.
constexpr Code EnumLast(Code) { return Code::kWrongShard; }

const char* CodeName(Code c);

class [[nodiscard]] Status {
 public:
  Status() : code_(Code::kOk) {}
  explicit Status(Code code, std::string msg = {})
      : code_(code), msg_(std::move(msg)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "REJECTED: pending reconfiguration" — for logs and test failures.
  std::string ToString() const;

  bool operator==(const Status& o) const { return code_ == o.code_; }

  /// Serialized fields (common/codec.h): code, message.
  template <class Io>
  friend void Walk(Io& io, Status& s) {
    io(s.code_, s.msg_);
  }

 private:
  Code code_;
  std::string msg_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status NotLeader(std::string m = {}) {
  return Status(Code::kNotLeader, std::move(m));
}
inline Status NotFound(std::string m = {}) {
  return Status(Code::kNotFound, std::move(m));
}
inline Status Rejected(std::string m = {}) {
  return Status(Code::kRejected, std::move(m));
}
inline Status Busy(std::string m = {}) { return Status(Code::kBusy, std::move(m)); }
inline Status Timeout(std::string m = {}) {
  return Status(Code::kTimeout, std::move(m));
}
inline Status Unavailable(std::string m = {}) {
  return Status(Code::kUnavailable, std::move(m));
}
inline Status Conflict(std::string m = {}) {
  return Status(Code::kConflict, std::move(m));
}
inline Status OutOfRange(std::string m = {}) {
  return Status(Code::kOutOfRange, std::move(m));
}
inline Status Internal(std::string m = {}) {
  return Status(Code::kInternal, std::move(m));
}
inline Status WrongShard(std::string m = {}) {
  return Status(Code::kWrongShard, std::move(m));
}

/// Result<T>: either a value or a non-ok Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}            // NOLINT implicit
  Result(Status status) : v_(std::move(status)) {      // NOLINT implicit
    assert(!std::get<Status>(v_).ok() && "ok Status carries no value");
  }

  bool ok() const { return std::holds_alternative<T>(v_); }
  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(v_);
  }
  T& value() {
    assert(ok());
    return std::get<T>(v_);
  }
  const T& value() const {
    assert(ok());
    return std::get<T>(v_);
  }
  T value_or(T def) const { return ok() ? std::get<T>(v_) : std::move(def); }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> v_;
};

}  // namespace recraft
