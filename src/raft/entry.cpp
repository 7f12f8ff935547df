#include "raft/entry.h"

namespace recraft::raft {

namespace {
struct DescribeVisitor {
  std::string operator()(const NoOp&) const { return "noop"; }
  std::string operator()(const ConfInit& c) const {
    return "Cinit:" + NodesToString(c.members) + c.range.ToString();
  }
  std::string operator()(const sm::Command& c) const {
    return "cmd(" + c.key + "," + std::to_string(c.body.size()) + "B)";
  }
  std::string operator()(const ConfSplitJoint& c) const {
    return "Cjoint:" + c.plan.ToString();
  }
  std::string operator()(const ConfSplitNew& c) const {
    return "Cnew:" + c.plan.ToString();
  }
  std::string operator()(const ConfMember& c) const {
    return c.change.ToString();
  }
  std::string operator()(const ConfMergeTx& c) const {
    return "CTX(" + std::string(c.decision_ok ? "OK" : "NO") + "):" +
           c.plan.ToString();
  }
  std::string operator()(const ConfMergeOutcome& c) const {
    return std::string(c.commit ? "Cmerge:" : "Cabort:") + c.plan.ToString();
  }
  std::string operator()(const ConfSetRange& c) const {
    return "Crange:" + c.range.ToString() + (c.absorb ? "+absorb" : "");
  }
  std::string operator()(const ConfAbortSettled& c) const {
    return "CabortSettled(tx=" + std::to_string(c.tx) + ")";
  }
};
}  // namespace

std::string LogEntry::Describe() const {
  return std::to_string(index) + "@" + et().ToString() + ":" +
         std::visit(DescribeVisitor{}, payload);
}

}  // namespace recraft::raft
