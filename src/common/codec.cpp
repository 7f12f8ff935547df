#include "common/status.h"

namespace recraft {

const char* CodeName(Code c) {
  switch (c) {
    case Code::kOk: return "OK";
    case Code::kNotLeader: return "NOT_LEADER";
    case Code::kNotFound: return "NOT_FOUND";
    case Code::kRejected: return "REJECTED";
    case Code::kBusy: return "BUSY";
    case Code::kTimeout: return "TIMEOUT";
    case Code::kUnavailable: return "UNAVAILABLE";
    case Code::kConflict: return "CONFLICT";
    case Code::kOutOfRange: return "OUT_OF_RANGE";
    case Code::kInternal: return "INTERNAL";
    case Code::kWrongShard: return "WRONG_SHARD";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  std::string s = CodeName(code_);
  if (!msg_.empty()) {
    s += ": ";
    s += msg_;
  }
  return s;
}

}  // namespace recraft
