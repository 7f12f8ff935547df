#include "net/wire.h"

#include <memory>
#include <utility>

#include "raft/entry_slab.h"
#include "storage/codec.h"

namespace recraft::net {

namespace {

using storage::DecodeConfigState;
using storage::DecodeKeyRange;
using storage::DecodeLogEntry;
using storage::DecodeMemberChange;
using storage::DecodeMergePlan;
using storage::DecodeRaftSnapshot;
using storage::DecodeSmSnapshot;
using storage::DecodeSplitPlan;
using storage::EncodeConfigState;
using storage::EncodeKeyRange;
using storage::EncodeLogEntry;
using storage::EncodeMemberChange;
using storage::EncodeMergePlan;
using storage::EncodeRaftSnapshot;
using storage::EncodeSmSnapshot;
using storage::EncodeSplitPlan;

// Append-only message tags. Never renumber; retire by skipping.
enum WireTag : uint8_t {
  kTagRequestVote = 1,
  kTagVoteReply = 2,
  kTagAppendEntries = 3,
  kTagAppendReply = 4,
  kTagInstallSnapshot = 5,
  kTagInstallSnapshotReply = 6,
  kTagCommitNotify = 7,
  kTagPullRequest = 8,
  kTagPullReply = 9,
  kTagMergePrepareReq = 10,
  kTagMergePrepareReply = 11,
  kTagMergeCommitReq = 12,
  kTagMergeCommitReply = 13,
  kTagMergeFinalize = 14,
  kTagExchangeDone = 15,
  kTagSnapPullReq = 16,
  kTagSnapPullReply = 17,
  kTagReadIndexProbe = 18,
  kTagReadIndexAck = 19,
  kTagClientRequest = 20,
  kTagClientReply = 21,
  kTagRangeSnapReq = 22,
  kTagRangeSnapReply = 23,
  kTagBootstrapReq = 24,
  kTagBootstrapAck = 25,
  kTagNamingRegister = 26,
  kTagNamingLookupReq = 27,
  kTagNamingLookupReply = 28,
};

// ClientBody variant tags (same append-only discipline).
enum BodyTag : uint8_t {
  kBodyCommand = 1,
  kBodyRead = 2,
  kBodySplit = 3,
  kBodyMerge = 4,
  kBodyMember = 5,
  kBodySetRange = 6,
};

// --- small pieces ----------------------------------------------------------

void PutEntrySpan(Encoder& enc, const raft::EntrySpan& span) {
  enc.PutU32(static_cast<uint32_t>(span.size()));
  for (const raft::LogEntry& e : span) EncodeLogEntry(enc, e);
}

Result<raft::EntrySpan> GetEntrySpan(Decoder& dec) {
  auto count = dec.GetU32();
  if (!count.ok()) return count.status();
  raft::EntrySpan span;
  if (*count == 0) return span;
  auto slab = std::make_shared<raft::EntrySlab>(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto e = DecodeLogEntry(dec);
    if (!e.ok()) return e.status();
    slab->PushBack(std::move(*e));
  }
  span.PushSegment(std::move(slab), 0, *count);
  return span;
}

void PutRaftSnapshotPtr(Encoder& enc, const raft::RaftSnapshotPtr& snap) {
  enc.PutBool(snap != nullptr);
  if (snap != nullptr) EncodeRaftSnapshot(enc, *snap);
}

Result<raft::RaftSnapshotPtr> GetRaftSnapshotPtr(Decoder& dec) {
  auto has = dec.GetBool();
  if (!has.ok()) return has.status();
  if (!*has) return raft::RaftSnapshotPtr();
  auto snap = DecodeRaftSnapshot(dec);
  if (!snap.ok()) return snap.status();
  return raft::RaftSnapshotPtr(
      std::make_shared<raft::RaftSnapshot>(std::move(*snap)));
}

void PutSmSnapshotPtr(Encoder& enc, const sm::SnapshotPtr& snap) {
  enc.PutBool(snap != nullptr);
  if (snap != nullptr) EncodeSmSnapshot(enc, *snap);
}

Result<sm::SnapshotPtr> GetSmSnapshotPtr(Decoder& dec) {
  auto has = dec.GetBool();
  if (!has.ok()) return has.status();
  if (!*has) return sm::SnapshotPtr();
  auto snap = DecodeSmSnapshot(dec);
  if (!snap.ok()) return snap.status();
  return sm::SnapshotPtr(std::make_shared<sm::Snapshot>(std::move(*snap)));
}

void PutStatus(Encoder& enc, const Status& s) {
  enc.PutU8(static_cast<uint8_t>(s.code()));
  enc.PutString(s.message());
}

// Out-parameter because Result<Status> would make the value and error
// constructors the same overload.
Status GetStatus(Decoder& dec, Status* out) {
  auto code = dec.GetU8();
  if (!code.ok()) return code.status();
  auto msg = dec.GetString();
  if (!msg.ok()) return msg.status();
  if (*code > static_cast<uint8_t>(Code::kWrongShard)) {
    return Internal("wire: unknown status code");
  }
  *out = *code == 0 ? OkStatus()
                    : Status(static_cast<Code>(*code), std::move(*msg));
  return OkStatus();
}

void PutCommand(Encoder& enc, const sm::Command& c) {
  enc.PutString(c.key);
  enc.PutBytes(c.body);
}

Result<sm::Command> GetCommand(Decoder& dec) {
  sm::Command c;
  auto key = dec.GetString();
  if (!key.ok()) return key.status();
  auto body = dec.GetBytes();
  if (!body.ok()) return body.status();
  c.key = std::move(*key);
  c.body = std::move(*body);
  return c;
}

void PutClientBody(Encoder& enc, const raft::ClientBody& body) {
  std::visit(
      [&enc](const auto& b) {
        using B = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<B, sm::Command>) {
          enc.PutU8(kBodyCommand);
          PutCommand(enc, b);
        } else if constexpr (std::is_same_v<B, raft::ReadRequest>) {
          enc.PutU8(kBodyRead);
          PutCommand(enc, b.query);
        } else if constexpr (std::is_same_v<B, raft::AdminSplit>) {
          enc.PutU8(kBodySplit);
          enc.PutU32(static_cast<uint32_t>(b.groups.size()));
          for (const auto& g : b.groups) storage::EncodeNodeVec(enc, g);
          enc.PutU32(static_cast<uint32_t>(b.split_keys.size()));
          for (const auto& k : b.split_keys) enc.PutString(k);
        } else if constexpr (std::is_same_v<B, raft::AdminMerge>) {
          enc.PutU8(kBodyMerge);
          EncodeMergePlan(enc, b.draft);
        } else if constexpr (std::is_same_v<B, raft::AdminMember>) {
          enc.PutU8(kBodyMember);
          EncodeMemberChange(enc, b.change);
        } else if constexpr (std::is_same_v<B, raft::AdminSetRange>) {
          enc.PutU8(kBodySetRange);
          EncodeKeyRange(enc, b.range);
          PutSmSnapshotPtr(enc, b.absorb);
        }
      },
      body);
}

Result<raft::ClientBody> GetClientBody(Decoder& dec) {
  auto tag = dec.GetU8();
  if (!tag.ok()) return tag.status();
  switch (*tag) {
    case kBodyCommand: {
      auto c = GetCommand(dec);
      if (!c.ok()) return c.status();
      return raft::ClientBody(std::move(*c));
    }
    case kBodyRead: {
      auto c = GetCommand(dec);
      if (!c.ok()) return c.status();
      raft::ReadRequest r;
      r.query = std::move(*c);
      return raft::ClientBody(std::move(r));
    }
    case kBodySplit: {
      raft::AdminSplit s;
      auto ngroups = dec.GetU32();
      if (!ngroups.ok()) return ngroups.status();
      for (uint32_t i = 0; i < *ngroups; ++i) {
        auto g = storage::DecodeNodeVec(dec);
        if (!g.ok()) return g.status();
        s.groups.push_back(std::move(*g));
      }
      auto nkeys = dec.GetU32();
      if (!nkeys.ok()) return nkeys.status();
      for (uint32_t i = 0; i < *nkeys; ++i) {
        auto k = dec.GetString();
        if (!k.ok()) return k.status();
        s.split_keys.push_back(std::move(*k));
      }
      return raft::ClientBody(std::move(s));
    }
    case kBodyMerge: {
      auto p = DecodeMergePlan(dec);
      if (!p.ok()) return p.status();
      raft::AdminMerge m;
      m.draft = std::move(*p);
      return raft::ClientBody(std::move(m));
    }
    case kBodyMember: {
      auto c = DecodeMemberChange(dec);
      if (!c.ok()) return c.status();
      raft::AdminMember m;
      m.change = std::move(*c);
      return raft::ClientBody(std::move(m));
    }
    case kBodySetRange: {
      raft::AdminSetRange sr;
      auto r = DecodeKeyRange(dec);
      if (!r.ok()) return r.status();
      auto snap = GetSmSnapshotPtr(dec);
      if (!snap.ok()) return snap.status();
      sr.range = std::move(*r);
      sr.absorb = std::move(*snap);
      return raft::ClientBody(std::move(sr));
    }
    default:
      return Internal("wire: unknown client body tag");
  }
}

void PutNamingRegister(Encoder& enc, const raft::NamingRegister& r) {
  enc.PutU64(r.uid);
  enc.PutU32(r.epoch);
  storage::EncodeNodeVec(enc, r.members);
  EncodeKeyRange(enc, r.range);
}

Result<raft::NamingRegister> GetNamingRegister(Decoder& dec) {
  raft::NamingRegister r;
  auto uid = dec.GetU64();
  if (!uid.ok()) return uid.status();
  auto epoch = dec.GetU32();
  if (!epoch.ok()) return epoch.status();
  auto members = storage::DecodeNodeVec(dec);
  if (!members.ok()) return members.status();
  auto range = DecodeKeyRange(dec);
  if (!range.ok()) return range.status();
  r.uid = *uid;
  r.epoch = *epoch;
  r.members = std::move(*members);
  r.range = std::move(*range);
  return r;
}

}  // namespace

// --- encode ----------------------------------------------------------------

void EncodeMessage(Encoder& enc, const raft::Message& m) {
  std::visit(
      [&enc](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, raft::RequestVote>) {
          enc.PutU8(kTagRequestVote);
          enc.PutU64(v.et);
          enc.PutU32(v.candidate);
          enc.PutU64(v.last_idx);
          enc.PutU64(v.last_term);
        } else if constexpr (std::is_same_v<T, raft::VoteReply>) {
          enc.PutU8(kTagVoteReply);
          enc.PutU64(v.et);
          enc.PutU32(v.from);
          enc.PutBool(v.granted);
          enc.PutBool(v.pull);
        } else if constexpr (std::is_same_v<T, raft::AppendEntries>) {
          enc.PutU8(kTagAppendEntries);
          enc.PutU64(v.et);
          enc.PutU32(v.leader);
          enc.PutU64(v.prev_idx);
          enc.PutU64(v.prev_term);
          PutEntrySpan(enc, v.entries);
          enc.PutU64(v.commit);
        } else if constexpr (std::is_same_v<T, raft::AppendReply>) {
          enc.PutU8(kTagAppendReply);
          enc.PutU64(v.et);
          enc.PutU32(v.from);
          enc.PutBool(v.ok);
          enc.PutU64(v.match);
          enc.PutU64(v.conflict_hint);
        } else if constexpr (std::is_same_v<T, raft::InstallSnapshot>) {
          enc.PutU8(kTagInstallSnapshot);
          enc.PutU64(v.et);
          enc.PutU32(v.leader);
          PutRaftSnapshotPtr(enc, v.snap);
        } else if constexpr (std::is_same_v<T, raft::InstallSnapshotReply>) {
          enc.PutU8(kTagInstallSnapshotReply);
          enc.PutU64(v.et);
          enc.PutU32(v.from);
          enc.PutU64(v.applied);
        } else if constexpr (std::is_same_v<T, raft::CommitNotify>) {
          enc.PutU8(kTagCommitNotify);
          enc.PutU64(v.et);
          enc.PutU32(v.from);
          enc.PutU64(v.cnew_index);
          enc.PutU64(v.cnew_term);
        } else if constexpr (std::is_same_v<T, raft::PullRequest>) {
          enc.PutU8(kTagPullRequest);
          enc.PutU32(v.from);
          enc.PutU32(v.epoch);
          enc.PutU64(v.next_idx);
        } else if constexpr (std::is_same_v<T, raft::PullReply>) {
          enc.PutU8(kTagPullReply);
          enc.PutU32(v.from);
          enc.PutU32(v.epoch);
          PutEntrySpan(enc, v.entries);
          enc.PutU64(v.commit);
          enc.PutBool(v.capped);
          PutRaftSnapshotPtr(enc, v.snap);
        } else if constexpr (std::is_same_v<T, raft::MergePrepareReq>) {
          enc.PutU8(kTagMergePrepareReq);
          enc.PutU32(v.from);
          EncodeMergePlan(enc, v.plan);
        } else if constexpr (std::is_same_v<T, raft::MergePrepareReply>) {
          enc.PutU8(kTagMergePrepareReply);
          enc.PutU32(v.from);
          enc.PutU64(v.tx);
          enc.PutU32(static_cast<uint32_t>(v.source_index));
          enc.PutBool(v.ok);
          enc.PutBool(v.retry);
          enc.PutU32(v.leader_hint);
          enc.PutU32(v.epoch);
        } else if constexpr (std::is_same_v<T, raft::MergeCommitReq>) {
          enc.PutU8(kTagMergeCommitReq);
          enc.PutU32(v.from);
          enc.PutU64(v.tx);
          enc.PutBool(v.commit);
          EncodeMergePlan(enc, v.plan);
        } else if constexpr (std::is_same_v<T, raft::MergeCommitReply>) {
          enc.PutU8(kTagMergeCommitReply);
          enc.PutU32(v.from);
          enc.PutU64(v.tx);
          enc.PutU32(static_cast<uint32_t>(v.source_index));
          enc.PutBool(v.ok);
          enc.PutBool(v.retry);
          enc.PutU32(v.leader_hint);
        } else if constexpr (std::is_same_v<T, raft::MergeFinalize>) {
          enc.PutU8(kTagMergeFinalize);
          enc.PutU32(v.from);
          enc.PutU64(v.tx);
        } else if constexpr (std::is_same_v<T, raft::ExchangeDone>) {
          enc.PutU8(kTagExchangeDone);
          enc.PutU32(v.from);
          enc.PutU64(v.tx);
        } else if constexpr (std::is_same_v<T, raft::SnapPullReq>) {
          enc.PutU8(kTagSnapPullReq);
          enc.PutU32(v.from);
          enc.PutU64(v.tx);
          enc.PutU32(static_cast<uint32_t>(v.source_index));
        } else if constexpr (std::is_same_v<T, raft::SnapPullReply>) {
          enc.PutU8(kTagSnapPullReply);
          enc.PutU32(v.from);
          enc.PutU64(v.tx);
          enc.PutU32(static_cast<uint32_t>(v.source_index));
          enc.PutBool(v.ready);
          PutSmSnapshotPtr(enc, v.snap);
        } else if constexpr (std::is_same_v<T, raft::ReadIndexProbe>) {
          enc.PutU8(kTagReadIndexProbe);
          enc.PutU64(v.et);
          enc.PutU32(v.from);
          enc.PutU64(v.seq);
        } else if constexpr (std::is_same_v<T, raft::ReadIndexAck>) {
          enc.PutU8(kTagReadIndexAck);
          enc.PutU64(v.et);
          enc.PutU32(v.from);
          enc.PutU64(v.seq);
          enc.PutBool(v.ok);
        } else if constexpr (std::is_same_v<T, raft::ClientRequest>) {
          enc.PutU8(kTagClientRequest);
          enc.PutU64(v.req_id);
          enc.PutU32(v.from);
          PutClientBody(enc, v.body);
        } else if constexpr (std::is_same_v<T, raft::ClientReply>) {
          enc.PutU8(kTagClientReply);
          enc.PutU64(v.req_id);
          enc.PutU32(v.from);
          PutStatus(enc, v.status);
          enc.PutString(v.value);
          enc.PutU32(v.leader_hint);
          EncodeKeyRange(enc, v.serving_range);
          enc.PutU32(v.epoch);
        } else if constexpr (std::is_same_v<T, raft::RangeSnapReq>) {
          enc.PutU8(kTagRangeSnapReq);
          enc.PutU32(v.from);
          EncodeKeyRange(enc, v.range);
        } else if constexpr (std::is_same_v<T, raft::RangeSnapReply>) {
          enc.PutU8(kTagRangeSnapReply);
          enc.PutU32(v.from);
          enc.PutBool(v.ok);
          enc.PutBool(v.retry);
          enc.PutU32(v.leader_hint);
          EncodeKeyRange(enc, v.range);
          PutSmSnapshotPtr(enc, v.snap);
        } else if constexpr (std::is_same_v<T, raft::BootstrapReq>) {
          enc.PutU8(kTagBootstrapReq);
          enc.PutU32(v.from);
          enc.PutU64(v.op_id);
          EncodeConfigState(enc, v.genesis);
          PutSmSnapshotPtr(enc, v.data);
        } else if constexpr (std::is_same_v<T, raft::BootstrapAck>) {
          enc.PutU8(kTagBootstrapAck);
          enc.PutU32(v.from);
          enc.PutU64(v.op_id);
        } else if constexpr (std::is_same_v<T, raft::NamingRegister>) {
          enc.PutU8(kTagNamingRegister);
          PutNamingRegister(enc, v);
        } else if constexpr (std::is_same_v<T, raft::NamingLookupReq>) {
          enc.PutU8(kTagNamingLookupReq);
          enc.PutU32(v.from);
        } else if constexpr (std::is_same_v<T, raft::NamingLookupReply>) {
          enc.PutU8(kTagNamingLookupReply);
          enc.PutU32(static_cast<uint32_t>(v.clusters.size()));
          for (const auto& c : v.clusters) PutNamingRegister(enc, c);
        }
      },
      m);
}

size_t EncodedSize(const raft::Message& m) {
  Encoder enc = Encoder::Counting();
  EncodeMessage(enc, m);
  return enc.size();
}

// --- decode ----------------------------------------------------------------

// The per-message bodies below mirror the encode order field by field; the
// RET macro keeps the error plumbing from drowning the structure.
#define GETF(var, expr)            \
  auto var = (expr);               \
  if (!var.ok()) return var.status()

Result<raft::MessagePtr> DecodeMessage(Decoder& dec) {
  GETF(tag, dec.GetU8());
  switch (*tag) {
    case kTagRequestVote: {
      raft::RequestVote v;
      GETF(et, dec.GetU64());
      GETF(cand, dec.GetU32());
      GETF(li, dec.GetU64());
      GETF(lt, dec.GetU64());
      v.et = *et;
      v.candidate = *cand;
      v.last_idx = *li;
      v.last_term = *lt;
      return raft::MakeMessage(std::move(v));
    }
    case kTagVoteReply: {
      raft::VoteReply v;
      GETF(et, dec.GetU64());
      GETF(from, dec.GetU32());
      GETF(granted, dec.GetBool());
      GETF(pull, dec.GetBool());
      v.et = *et;
      v.from = *from;
      v.granted = *granted;
      v.pull = *pull;
      return raft::MakeMessage(std::move(v));
    }
    case kTagAppendEntries: {
      raft::AppendEntries v;
      GETF(et, dec.GetU64());
      GETF(leader, dec.GetU32());
      GETF(pi, dec.GetU64());
      GETF(pt, dec.GetU64());
      GETF(entries, GetEntrySpan(dec));
      GETF(commit, dec.GetU64());
      v.et = *et;
      v.leader = *leader;
      v.prev_idx = *pi;
      v.prev_term = *pt;
      v.entries = std::move(*entries);
      v.commit = *commit;
      return raft::MakeMessage(std::move(v));
    }
    case kTagAppendReply: {
      raft::AppendReply v;
      GETF(et, dec.GetU64());
      GETF(from, dec.GetU32());
      GETF(ok, dec.GetBool());
      GETF(match, dec.GetU64());
      GETF(hint, dec.GetU64());
      v.et = *et;
      v.from = *from;
      v.ok = *ok;
      v.match = *match;
      v.conflict_hint = *hint;
      return raft::MakeMessage(std::move(v));
    }
    case kTagInstallSnapshot: {
      raft::InstallSnapshot v;
      GETF(et, dec.GetU64());
      GETF(leader, dec.GetU32());
      GETF(snap, GetRaftSnapshotPtr(dec));
      v.et = *et;
      v.leader = *leader;
      v.snap = std::move(*snap);
      return raft::MakeMessage(std::move(v));
    }
    case kTagInstallSnapshotReply: {
      raft::InstallSnapshotReply v;
      GETF(et, dec.GetU64());
      GETF(from, dec.GetU32());
      GETF(applied, dec.GetU64());
      v.et = *et;
      v.from = *from;
      v.applied = *applied;
      return raft::MakeMessage(std::move(v));
    }
    case kTagCommitNotify: {
      raft::CommitNotify v;
      GETF(et, dec.GetU64());
      GETF(from, dec.GetU32());
      GETF(ci, dec.GetU64());
      GETF(ct, dec.GetU64());
      v.et = *et;
      v.from = *from;
      v.cnew_index = *ci;
      v.cnew_term = *ct;
      return raft::MakeMessage(std::move(v));
    }
    case kTagPullRequest: {
      raft::PullRequest v;
      GETF(from, dec.GetU32());
      GETF(epoch, dec.GetU32());
      GETF(ni, dec.GetU64());
      v.from = *from;
      v.epoch = *epoch;
      v.next_idx = *ni;
      return raft::MakeMessage(std::move(v));
    }
    case kTagPullReply: {
      raft::PullReply v;
      GETF(from, dec.GetU32());
      GETF(epoch, dec.GetU32());
      GETF(entries, GetEntrySpan(dec));
      GETF(commit, dec.GetU64());
      GETF(capped, dec.GetBool());
      GETF(snap, GetRaftSnapshotPtr(dec));
      v.from = *from;
      v.epoch = *epoch;
      v.entries = std::move(*entries);
      v.commit = *commit;
      v.capped = *capped;
      v.snap = std::move(*snap);
      return raft::MakeMessage(std::move(v));
    }
    case kTagMergePrepareReq: {
      raft::MergePrepareReq v;
      GETF(from, dec.GetU32());
      GETF(plan, DecodeMergePlan(dec));
      v.from = *from;
      v.plan = std::move(*plan);
      return raft::MakeMessage(std::move(v));
    }
    case kTagMergePrepareReply: {
      raft::MergePrepareReply v;
      GETF(from, dec.GetU32());
      GETF(tx, dec.GetU64());
      GETF(si, dec.GetU32());
      GETF(ok, dec.GetBool());
      GETF(retry, dec.GetBool());
      GETF(hint, dec.GetU32());
      GETF(epoch, dec.GetU32());
      v.from = *from;
      v.tx = *tx;
      v.source_index = static_cast<int>(*si);
      v.ok = *ok;
      v.retry = *retry;
      v.leader_hint = *hint;
      v.epoch = *epoch;
      return raft::MakeMessage(std::move(v));
    }
    case kTagMergeCommitReq: {
      raft::MergeCommitReq v;
      GETF(from, dec.GetU32());
      GETF(tx, dec.GetU64());
      GETF(commit, dec.GetBool());
      GETF(plan, DecodeMergePlan(dec));
      v.from = *from;
      v.tx = *tx;
      v.commit = *commit;
      v.plan = std::move(*plan);
      return raft::MakeMessage(std::move(v));
    }
    case kTagMergeCommitReply: {
      raft::MergeCommitReply v;
      GETF(from, dec.GetU32());
      GETF(tx, dec.GetU64());
      GETF(si, dec.GetU32());
      GETF(ok, dec.GetBool());
      GETF(retry, dec.GetBool());
      GETF(hint, dec.GetU32());
      v.from = *from;
      v.tx = *tx;
      v.source_index = static_cast<int>(*si);
      v.ok = *ok;
      v.retry = *retry;
      v.leader_hint = *hint;
      return raft::MakeMessage(std::move(v));
    }
    case kTagMergeFinalize: {
      raft::MergeFinalize v;
      GETF(from, dec.GetU32());
      GETF(tx, dec.GetU64());
      v.from = *from;
      v.tx = *tx;
      return raft::MakeMessage(std::move(v));
    }
    case kTagExchangeDone: {
      raft::ExchangeDone v;
      GETF(from, dec.GetU32());
      GETF(tx, dec.GetU64());
      v.from = *from;
      v.tx = *tx;
      return raft::MakeMessage(std::move(v));
    }
    case kTagSnapPullReq: {
      raft::SnapPullReq v;
      GETF(from, dec.GetU32());
      GETF(tx, dec.GetU64());
      GETF(si, dec.GetU32());
      v.from = *from;
      v.tx = *tx;
      v.source_index = static_cast<int>(*si);
      return raft::MakeMessage(std::move(v));
    }
    case kTagSnapPullReply: {
      raft::SnapPullReply v;
      GETF(from, dec.GetU32());
      GETF(tx, dec.GetU64());
      GETF(si, dec.GetU32());
      GETF(ready, dec.GetBool());
      GETF(snap, GetSmSnapshotPtr(dec));
      v.from = *from;
      v.tx = *tx;
      v.source_index = static_cast<int>(*si);
      v.ready = *ready;
      v.snap = std::move(*snap);
      return raft::MakeMessage(std::move(v));
    }
    case kTagReadIndexProbe: {
      raft::ReadIndexProbe v;
      GETF(et, dec.GetU64());
      GETF(from, dec.GetU32());
      GETF(seq, dec.GetU64());
      v.et = *et;
      v.from = *from;
      v.seq = *seq;
      return raft::MakeMessage(std::move(v));
    }
    case kTagReadIndexAck: {
      raft::ReadIndexAck v;
      GETF(et, dec.GetU64());
      GETF(from, dec.GetU32());
      GETF(seq, dec.GetU64());
      GETF(ok, dec.GetBool());
      v.et = *et;
      v.from = *from;
      v.seq = *seq;
      v.ok = *ok;
      return raft::MakeMessage(std::move(v));
    }
    case kTagClientRequest: {
      raft::ClientRequest v;
      GETF(rid, dec.GetU64());
      GETF(from, dec.GetU32());
      GETF(body, GetClientBody(dec));
      v.req_id = *rid;
      v.from = *from;
      v.body = std::move(*body);
      return raft::MakeMessage(std::move(v));
    }
    case kTagClientReply: {
      raft::ClientReply v;
      GETF(rid, dec.GetU64());
      GETF(from, dec.GetU32());
      Status status_rc = GetStatus(dec, &v.status);
      if (!status_rc.ok()) return status_rc;
      GETF(value, dec.GetString());
      GETF(hint, dec.GetU32());
      GETF(range, DecodeKeyRange(dec));
      GETF(epoch, dec.GetU32());
      v.req_id = *rid;
      v.from = *from;
      v.value = std::move(*value);
      v.leader_hint = *hint;
      v.serving_range = std::move(*range);
      v.epoch = *epoch;
      return raft::MakeMessage(std::move(v));
    }
    case kTagRangeSnapReq: {
      raft::RangeSnapReq v;
      GETF(from, dec.GetU32());
      GETF(range, DecodeKeyRange(dec));
      v.from = *from;
      v.range = std::move(*range);
      return raft::MakeMessage(std::move(v));
    }
    case kTagRangeSnapReply: {
      raft::RangeSnapReply v;
      GETF(from, dec.GetU32());
      GETF(ok, dec.GetBool());
      GETF(retry, dec.GetBool());
      GETF(hint, dec.GetU32());
      GETF(range, DecodeKeyRange(dec));
      GETF(snap, GetSmSnapshotPtr(dec));
      v.from = *from;
      v.ok = *ok;
      v.retry = *retry;
      v.leader_hint = *hint;
      v.range = std::move(*range);
      v.snap = std::move(*snap);
      return raft::MakeMessage(std::move(v));
    }
    case kTagBootstrapReq: {
      raft::BootstrapReq v;
      GETF(from, dec.GetU32());
      GETF(oid, dec.GetU64());
      GETF(genesis, DecodeConfigState(dec));
      GETF(data, GetSmSnapshotPtr(dec));
      v.from = *from;
      v.op_id = *oid;
      v.genesis = std::move(*genesis);
      v.data = std::move(*data);
      return raft::MakeMessage(std::move(v));
    }
    case kTagBootstrapAck: {
      raft::BootstrapAck v;
      GETF(from, dec.GetU32());
      GETF(oid, dec.GetU64());
      v.from = *from;
      v.op_id = *oid;
      return raft::MakeMessage(std::move(v));
    }
    case kTagNamingRegister: {
      GETF(reg, GetNamingRegister(dec));
      return raft::MakeMessage(std::move(*reg));
    }
    case kTagNamingLookupReq: {
      raft::NamingLookupReq v;
      GETF(from, dec.GetU32());
      v.from = *from;
      return raft::MakeMessage(std::move(v));
    }
    case kTagNamingLookupReply: {
      raft::NamingLookupReply v;
      GETF(n, dec.GetU32());
      for (uint32_t i = 0; i < *n; ++i) {
        GETF(reg, GetNamingRegister(dec));
        v.clusters.push_back(std::move(*reg));
      }
      return raft::MakeMessage(std::move(v));
    }
    default:
      return Internal("wire: unknown message tag");
  }
}

#undef GETF

}  // namespace recraft::net
