#include "net/wire.h"

#include <utility>

#include "storage/codec.h"

namespace recraft::raft {

// One field walk per message (common/codec.h); nested types walk through
// storage/codec.h.

template <class Io>
void Walk(Io& io, RequestVote& v) {
  io(v.et, v.candidate, v.last_idx, v.last_term);
}
template <class Io>
void Walk(Io& io, VoteReply& v) {
  io(v.et, v.from, v.granted, v.pull);
}
template <class Io>
void Walk(Io& io, AppendEntries& v) {
  io(v.et, v.leader, v.prev_idx, v.prev_term, v.entries, v.commit);
}
template <class Io>
void Walk(Io& io, AppendReply& v) {
  io(v.et, v.from, v.ok, v.match, v.conflict_hint);
}
template <class Io>
void Walk(Io& io, InstallSnapshot& v) {
  io(v.et, v.leader, v.snap);
}
template <class Io>
void Walk(Io& io, InstallSnapshotReply& v) {
  io(v.et, v.from, v.applied);
}
template <class Io>
void Walk(Io& io, CommitNotify& v) {
  io(v.et, v.from, v.cnew_index, v.cnew_term);
}
template <class Io>
void Walk(Io& io, PullRequest& v) {
  io(v.from, v.epoch, v.next_idx);
}
template <class Io>
void Walk(Io& io, PullReply& v) {
  io(v.from, v.epoch, v.entries, v.commit, v.capped, v.snap);
}
template <class Io>
void Walk(Io& io, MergePrepareReq& v) {
  io(v.from, v.plan);
}
template <class Io>
void Walk(Io& io, MergePrepareReply& v) {
  io(v.from, v.tx, v.source_index, v.ok, v.retry, v.leader_hint, v.epoch);
}
template <class Io>
void Walk(Io& io, MergeCommitReq& v) {
  io(v.from, v.tx, v.commit, v.plan);
}
template <class Io>
void Walk(Io& io, MergeCommitReply& v) {
  io(v.from, v.tx, v.source_index, v.ok, v.retry, v.leader_hint);
}
template <class Io>
void Walk(Io& io, MergeFinalize& v) {
  io(v.from, v.tx);
}
template <class Io>
void Walk(Io& io, ExchangeDone& v) {
  io(v.from, v.tx);
}
template <class Io>
void Walk(Io& io, SnapPullReq& v) {
  io(v.from, v.tx, v.source_index);
}
template <class Io>
void Walk(Io& io, SnapPullReply& v) {
  io(v.from, v.tx, v.source_index, v.ready, v.snap);
}
template <class Io>
void Walk(Io& io, ReadIndexProbe& v) {
  io(v.et, v.from, v.seq);
}
template <class Io>
void Walk(Io& io, ReadIndexAck& v) {
  io(v.et, v.from, v.seq, v.ok);
}

template <class Io>
void Walk(Io& io, ReadRequest& b) {
  io(b.query);
}
template <class Io>
void Walk(Io& io, AdminSplit& b) {
  io(b.groups, b.split_keys);
}
template <class Io>
void Walk(Io& io, AdminMerge& b) {
  io(b.draft);
}
template <class Io>
void Walk(Io& io, AdminMember& b) {
  io(b.change);
}
template <class Io>
void Walk(Io& io, AdminSetRange& b) {
  io(b.range, b.absorb);
}

// ClientBody tags: append-only, like the message tags below.
using ClientBodyTags =
    codec::TagTable<ClientBody, codec::Tag<1, sm::Command>,
                    codec::Tag<2, ReadRequest>, codec::Tag<3, AdminSplit>,
                    codec::Tag<4, AdminMerge>, codec::Tag<5, AdminMember>,
                    codec::Tag<6, AdminSetRange>>;

template <class Io>
void Walk(Io& io, ClientRequest& v) {
  io(v.req_id, v.from, codec::Tagged<ClientBodyTags>(v.body));
}
template <class Io>
void Walk(Io& io, ClientReply& v) {
  io(v.req_id, v.from, v.status, v.value, v.leader_hint, v.serving_range,
     v.epoch);
}
template <class Io>
void Walk(Io& io, RangeSnapReq& v) {
  io(v.from, v.range);
}
template <class Io>
void Walk(Io& io, RangeSnapReply& v) {
  io(v.from, v.ok, v.retry, v.leader_hint, v.range, v.snap);
}
template <class Io>
void Walk(Io& io, BootstrapReq& v) {
  io(v.from, v.op_id, v.genesis, v.data);
}
template <class Io>
void Walk(Io& io, BootstrapAck& v) {
  io(v.from, v.op_id);
}
template <class Io>
void Walk(Io& io, NamingRegister& v) {
  io(v.uid, v.epoch, v.members, v.range);
}
template <class Io>
void Walk(Io& io, NamingLookupReq& v) {
  io(v.from);
}
template <class Io>
void Walk(Io& io, NamingLookupReply& v) {
  io(v.clusters);
}

}  // namespace recraft::raft

namespace recraft::net {

namespace {

// Append-only message tags. Never renumber; retire by skipping.
using MessageTags = codec::TagTable<
    raft::Message, codec::Tag<1, raft::RequestVote>,
    codec::Tag<2, raft::VoteReply>, codec::Tag<3, raft::AppendEntries>,
    codec::Tag<4, raft::AppendReply>, codec::Tag<5, raft::InstallSnapshot>,
    codec::Tag<6, raft::InstallSnapshotReply>,
    codec::Tag<7, raft::CommitNotify>, codec::Tag<8, raft::PullRequest>,
    codec::Tag<9, raft::PullReply>, codec::Tag<10, raft::MergePrepareReq>,
    codec::Tag<11, raft::MergePrepareReply>,
    codec::Tag<12, raft::MergeCommitReq>,
    codec::Tag<13, raft::MergeCommitReply>,
    codec::Tag<14, raft::MergeFinalize>, codec::Tag<15, raft::ExchangeDone>,
    codec::Tag<16, raft::SnapPullReq>, codec::Tag<17, raft::SnapPullReply>,
    codec::Tag<18, raft::ReadIndexProbe>, codec::Tag<19, raft::ReadIndexAck>,
    codec::Tag<20, raft::ClientRequest>, codec::Tag<21, raft::ClientReply>,
    codec::Tag<22, raft::RangeSnapReq>, codec::Tag<23, raft::RangeSnapReply>,
    codec::Tag<24, raft::BootstrapReq>, codec::Tag<25, raft::BootstrapAck>,
    codec::Tag<26, raft::NamingRegister>,
    codec::Tag<27, raft::NamingLookupReq>,
    codec::Tag<28, raft::NamingLookupReply>>;

}  // namespace

void EncodeMessage(Encoder& enc, const raft::Message& m) {
  codec::Write(enc, codec::Tagged<MessageTags>(m));
}

size_t EncodedSize(const raft::Message& m) {
  return codec::Size(codec::Tagged<MessageTags>(m));
}

Result<raft::MessagePtr> DecodeMessage(Decoder& dec) {
  raft::Message m;
  Status s = codec::Read(dec, codec::Tagged<MessageTags>(m));
  if (!s.ok()) return s;
  return raft::MakeMessage(std::move(m));
}

}  // namespace recraft::net
