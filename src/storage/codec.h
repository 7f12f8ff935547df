// Field walks (common/codec.h) for the consensus types that reach a disk or
// a socket: log entries (every payload variant), configuration state,
// split and merge plans, reconfiguration history, state-machine and full
// consensus snapshots. The WAL, its snapshot / seal blobs and net::wire all
// encode these types through these walks, so a format is written down once.
// Plus the CRC32 the WAL record framing uses to detect torn tail writes.
//
// The encoding is the durable format: recovery after a crash parses these
// bytes with no access to the dead process's memory, so the Reader treats
// truncation and garbage as errors, never UB.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/codec.h"
#include "raft/entry.h"
#include "raft/entry_slab.h"
#include "raft/messages.h"

namespace recraft::storage {

/// CRC-32 (IEEE 802.3 polynomial, reflected). Guards each WAL record's
/// payload so a torn tail write is detected instead of replayed as garbage.
uint32_t Crc32(const uint8_t* data, size_t n);
inline uint32_t Crc32(const std::vector<uint8_t>& v) {
  return Crc32(v.data(), v.size());
}

}  // namespace recraft::storage

namespace recraft::sm {

template <class Io>
void Walk(Io& io, Command& c) {
  io(c.key, c.body);
}

/// The machine's own serialized image as one length-prefixed blob, plus
/// the range / item count the consensus layer needs.
template <class Io>
void Walk(Io& io, Snapshot& s) {
  io(s.range, s.data, s.items);
}

}  // namespace recraft::sm

namespace recraft::raft {

template <class Io>
void Walk(Io& io, SubCluster& s) {
  io(s.members, s.range, s.uid);
}

template <class Io>
void Walk(Io& io, SplitPlan& p) {
  io(p.subs);
}

template <class Io>
void Walk(Io& io, MergePlan& p) {
  io(p.tx, p.sources, p.coordinator, p.new_epoch, p.new_uid, p.new_range,
     p.resume_members);
}

template <class Io>
void Walk(Io& io, MemberChange& mc) {
  io(mc.kind, mc.nodes);
}

template <class Io>
void Walk(Io& io, ConfigState& c) {
  io(c.mode, c.members, c.fixed_quorum, c.range, c.uid, c.split,
     c.joint_index, c.cnew_index, c.vanilla_joint, c.jc_old, c.merge_tx,
     c.merge_tx_index, c.merge_decision_ok, c.merge_outcome_index,
     c.merge_outcome_commit, c.merge_outcome_plan);
}

template <class Io>
void Walk(Io& io, ReconfigRecord& r) {
  io(r.kind, r.epoch, r.uid, r.members, r.range, r.boundary_index);
}

template <class Io>
void Walk(Io&, NoOp&) {}

template <class Io>
void Walk(Io& io, ConfInit& c) {
  io(c.members, c.range, c.uid);
}

template <class Io>
void Walk(Io& io, ConfSplitJoint& c) {
  io(c.plan);
}

template <class Io>
void Walk(Io& io, ConfSplitNew& c) {
  io(c.plan);
}

template <class Io>
void Walk(Io& io, ConfMember& c) {
  io(c.change);
}

template <class Io>
void Walk(Io& io, ConfMergeTx& c) {
  io(c.plan, c.decision_ok);
}

template <class Io>
void Walk(Io& io, ConfMergeOutcome& c) {
  io(c.plan, c.commit);
}

template <class Io>
void Walk(Io& io, ConfSetRange& c) {
  io(c.range, c.absorb);
}

template <class Io>
void Walk(Io& io, ConfAbortSettled& c) {
  io(c.tx);
}

// Log payload tags: part of the durable format.
using PayloadTags = codec::TagTable<
    Payload, codec::Tag<0, NoOp>, codec::Tag<1, sm::Command>,
    codec::Tag<2, ConfInit>, codec::Tag<3, ConfSplitJoint>,
    codec::Tag<4, ConfSplitNew>, codec::Tag<5, ConfMember>,
    codec::Tag<6, ConfMergeTx>, codec::Tag<7, ConfMergeOutcome>,
    codec::Tag<8, ConfSetRange>, codec::Tag<9, ConfAbortSettled>>;

template <class Io>
void Walk(Io& io, LogEntry& e) {
  io(e.index, e.term, codec::Tagged<PayloadTags>(e.payload));
}

/// A u32 count and the entries. Decoding rebuilds the run in one fresh
/// slab: the refcounted sharing is a within-process optimization, across
/// processes the bytes are the truth.
template <class Io>
void Walk(Io& io, EntrySpan& span) {
  if constexpr (Io::kReads) {
    const size_t n = io.template Count<uint32_t, LogEntry>();
    span = EntrySpan();
    if (n == 0) return;
    auto slab = std::make_shared<EntrySlab>(static_cast<uint32_t>(n));
    for (size_t i = 0; i < n && io.ok(); ++i) {
      LogEntry e;
      io(e);
      slab->PushBack(std::move(e));
    }
    if (io.ok()) {
      span.PushSegment(std::move(slab), 0, static_cast<uint32_t>(n));
    }
  } else {
    const auto n = static_cast<uint32_t>(span.size());
    io(n);
    for (const LogEntry& e : span) io(e);
  }
}

template <class Io>
void Walk(Io& io, RaftSnapshot& s) {
  io(s.last_index, s.last_term, s.state, s.config, s.history,
     s.unsettled_aborts);
}

}  // namespace recraft::raft
