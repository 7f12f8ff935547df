#include "raft/messages.h"

#include "net/wire.h"

namespace recraft::raft {

namespace {

struct NameVisitor {
  const char* operator()(const RequestVote&) const { return "RequestVote"; }
  const char* operator()(const VoteReply&) const { return "VoteReply"; }
  const char* operator()(const AppendEntries&) const { return "AppendEntries"; }
  const char* operator()(const AppendReply&) const { return "AppendReply"; }
  const char* operator()(const InstallSnapshot&) const {
    return "InstallSnapshot";
  }
  const char* operator()(const InstallSnapshotReply&) const {
    return "InstallSnapshotReply";
  }
  const char* operator()(const CommitNotify&) const { return "CommitNotify"; }
  const char* operator()(const PullRequest&) const { return "PullRequest"; }
  const char* operator()(const PullReply&) const { return "PullReply"; }
  const char* operator()(const MergePrepareReq&) const {
    return "MergePrepareReq";
  }
  const char* operator()(const MergePrepareReply&) const {
    return "MergePrepareReply";
  }
  const char* operator()(const MergeCommitReq&) const {
    return "MergeCommitReq";
  }
  const char* operator()(const MergeCommitReply&) const {
    return "MergeCommitReply";
  }
  const char* operator()(const MergeFinalize&) const { return "MergeFinalize"; }
  const char* operator()(const ExchangeDone&) const { return "ExchangeDone"; }
  const char* operator()(const SnapPullReq&) const { return "SnapPullReq"; }
  const char* operator()(const SnapPullReply&) const { return "SnapPullReply"; }
  const char* operator()(const ReadIndexProbe&) const {
    return "ReadIndexProbe";
  }
  const char* operator()(const ReadIndexAck&) const { return "ReadIndexAck"; }
  const char* operator()(const ClientRequest&) const { return "ClientRequest"; }
  const char* operator()(const ClientReply&) const { return "ClientReply"; }
  const char* operator()(const RangeSnapReq&) const { return "RangeSnapReq"; }
  const char* operator()(const RangeSnapReply&) const {
    return "RangeSnapReply";
  }
  const char* operator()(const BootstrapReq&) const { return "BootstrapReq"; }
  const char* operator()(const BootstrapAck&) const { return "BootstrapAck"; }
  const char* operator()(const NamingRegister&) const {
    return "NamingRegister";
  }
  const char* operator()(const NamingLookupReq&) const {
    return "NamingLookupReq";
  }
  const char* operator()(const NamingLookupReply&) const {
    return "NamingLookupReply";
  }
};

}  // namespace

size_t MessageBytes(const Message& m) { return net::EncodedSize(m); }

const char* MessageName(const Message& m) {
  return std::visit(NameVisitor{}, m);
}

}  // namespace recraft::raft
