// Every RPC exchanged by nodes, clients, cluster managers and the naming
// service. The simulated network carries them as shared_ptr<const Message>
// and charges MessageBytes(): the exact length of the message's net::wire
// encoding, the same bytes UdpTransport puts on a real socket.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "obs/trace_ctx.h"
#include "raft/config.h"
#include "raft/entry.h"
#include "raft/entry_slab.h"
#include "sm/state_machine.h"

namespace recraft::raft {

/// A reconfiguration history record, retained even after log compaction so
/// long-partitioned nodes and clusters can find their successors (§V).
struct ReconfigRecord {
  enum class Kind : uint8_t { kSplit = 0, kMerge, kMember };
  friend constexpr Kind EnumLast(Kind) { return Kind::kMember; }
  Kind kind = Kind::kMember;
  uint32_t epoch = 0;          // epoch in force after the reconfiguration
  ClusterUid uid = 0;          // cluster identity after
  std::vector<NodeId> members;
  KeyRange range;
  /// For splits: the log index of the C_new entry — the epoch boundary a
  /// pull reply must not cross (a sibling's post-split entries would leak).
  Index boundary_index = 0;
};

/// A consensus-level snapshot: the applied state-machine image plus the log
/// position and configuration it covers.
struct RaftSnapshot {
  Index last_index = 0;
  uint64_t last_term = 0;  // EpochTerm raw
  sm::SnapshotPtr state;
  ConfigState config;
  std::vector<ReconfigRecord> history;
  /// Aborted merge transactions this (coordinator-source) node must keep
  /// retransmitting until every participant acks — survives compaction of
  /// the C_abort entry, and thus leader changes and reboots (see
  /// ConfAbortSettled).
  std::map<TxId, MergePlan> unsettled_aborts;
};
using RaftSnapshotPtr = std::shared_ptr<const RaftSnapshot>;

// ---------------------------------------------------------------------------
// Core Raft RPCs (epoch-term aware).

struct RequestVote {
  uint64_t et = 0;  // candidate's EpochTerm
  NodeId candidate = kNoNode;
  Index last_idx = 0;
  uint64_t last_term = 0;
};

struct VoteReply {
  uint64_t et = 0;
  NodeId from = kNoNode;
  bool granted = false;
  /// §III-B HandleVote: set when the responder's epoch exceeds the
  /// candidate's — "pull committed entries from me instead of campaigning".
  bool pull = false;
};

struct AppendEntries {
  uint64_t et = 0;
  NodeId leader = kNoNode;
  Index prev_idx = 0;
  uint64_t prev_term = 0;
  /// Zero-copy view over the leader's log slabs: fanning one batch out to N
  /// peers shares one set of immutable slab slots instead of materializing
  /// N entry vectors (see raft/entry_slab.h).
  EntrySpan entries;
  Index commit = 0;
};

struct AppendReply {
  uint64_t et = 0;
  NodeId from = kNoNode;
  bool ok = false;
  Index match = 0;          // highest index known replicated on follower
  Index conflict_hint = 0;  // follower's suggestion for next_idx on reject
};

struct InstallSnapshot {
  uint64_t et = 0;
  NodeId leader = kNoNode;
  RaftSnapshotPtr snap;
};

struct InstallSnapshotReply {
  uint64_t et = 0;
  NodeId from = kNoNode;
  Index applied = 0;
};

// ---------------------------------------------------------------------------
// ReCraft split protocol.

/// Multicast to all C_old members once the split C_new entry commits, so
/// sibling subclusters holding the entry learn of its commit and can elect
/// their own leaders (§III-B SplitLeaveJoint, line 30).
struct CommitNotify {
  uint64_t et = 0;  // sender's EpochTerm *before* the epoch bump
  NodeId from = kNoNode;
  Index cnew_index = 0;
  uint64_t cnew_term = 0;  // term of the C_new entry, so receivers can match
};

/// Pull-based recovery: request committed entries starting at next_idx.
struct PullRequest {
  NodeId from = kNoNode;
  uint32_t epoch = 0;  // requester's epoch, so the responder can cap
  Index next_idx = 0;
};

struct PullReply {
  NodeId from = kNoNode;
  uint32_t epoch = 0;            // responder's epoch
  EntrySpan entries;             // committed entries only (shared slab view)
  Index commit = 0;              // responder's commit index (possibly capped)
  /// True when the reply stops at the responder's epoch boundary: the
  /// requester must apply the boundary reconfiguration before pulling more.
  bool capped = false;
  /// Fallback when the responder compacted past next_idx.
  RaftSnapshotPtr snap;
};

// ---------------------------------------------------------------------------
// ReCraft merge protocol (cluster-level 2PC + snapshot exchange).

struct MergePrepareReq {
  NodeId from = kNoNode;  // coordinator's leader (reply target)
  MergePlan plan;
};

struct MergePrepareReply {
  NodeId from = kNoNode;
  TxId tx = 0;
  int source_index = -1;
  bool ok = false;
  /// Transient failure (not leader / no quorum yet): coordinator retries.
  bool retry = false;
  NodeId leader_hint = kNoNode;
  uint32_t epoch = 0;  // responder cluster's epoch, for E_new = E_max + 1
};

struct MergeCommitReq {
  NodeId from = kNoNode;
  TxId tx = 0;
  bool commit = false;  // false = abort
  MergePlan plan;       // final plan with new_epoch/new_uid filled
};

struct MergeCommitReply {
  NodeId from = kNoNode;
  TxId tx = 0;
  int source_index = -1;
  bool ok = false;
  bool retry = false;
  NodeId leader_hint = kNoNode;
};

/// Coordinator-cluster leader -> its own followers: all subclusters
/// acknowledged the 2PC commit; transition to the merged cluster now. The
/// coordinator cluster "applies last" (§III-C.1), so its members defer the
/// transition until this signal (or until they observe E_new traffic).
struct MergeFinalize {
  NodeId from = kNoNode;
  TxId tx = 0;
};

/// Post-merge garbage collection: a resumed member announces it has
/// completed the snapshot exchange for `tx`. Once every resumed member has
/// announced, holders prune the sealed snapshots retained for that merge
/// (`exchange_store_`) — chained merges would otherwise grow the retained
/// set without bound. Retransmitted until the sender itself prunes.
struct ExchangeDone {
  NodeId from = kNoNode;
  TxId tx = 0;
};

/// Data-exchange phase: pull subcluster `source_index`'s snapshot.
struct SnapPullReq {
  NodeId from = kNoNode;
  TxId tx = 0;
  int source_index = -1;
};

struct SnapPullReply {
  NodeId from = kNoNode;
  TxId tx = 0;
  int source_index = -1;
  bool ready = false;
  sm::SnapshotPtr snap;
};

// ---------------------------------------------------------------------------
// ReadIndex (linearizable leases-free reads, Raft §6.4): the leader records
// its commit index for a batch of pending reads, confirms it is still the
// leader with one probe round (a quorum of same-term acks), then serves the
// reads from applied state — no log entry, no WAL flush, no replication
// fan-out per read.

/// Leader -> followers: "confirm round `seq` of my term". Retransmitted
/// until the round's quorum is reached; acts as a heartbeat on receipt.
struct ReadIndexProbe {
  uint64_t et = 0;
  NodeId from = kNoNode;
  uint64_t seq = 0;
};

/// Follower -> leader. `ok` is false when the responder's term is higher —
/// the deposed leader steps down and fails its pending reads (the client
/// retries at the new leader), which is exactly what makes stale-leader
/// reads impossible.
struct ReadIndexAck {
  uint64_t et = 0;
  NodeId from = kNoNode;
  uint64_t seq = 0;
  bool ok = false;
};

// ---------------------------------------------------------------------------
// Client / admin interface.

struct AdminSplit {
  /// Member groups and split keys; the leader validates against its current
  /// configuration and builds the SplitPlan (C_joint / C_new payloads).
  std::vector<std::vector<NodeId>> groups;
  std::vector<std::string> split_keys;  // groups.size() - 1 keys
};

struct AdminMerge {
  /// Draft plan: sources describe the clusters to merge (coordinator is the
  /// cluster receiving this request; it must be sources[plan.coordinator]).
  MergePlan draft;
};

struct AdminMember {
  MemberChange change;
};

/// TC baseline: replace the cluster's range (optionally absorbing bulk
/// data) through a consensus entry, as the cluster manager's admin-tool
/// script would.
struct AdminSetRange {
  KeyRange range;
  sm::SnapshotPtr absorb;
};

/// A linearizable read served via the ReadIndex path instead of the log.
/// The query body is opaque to the node (the machine's Query decodes it);
/// query.key routes and range-checks it like any command.
struct ReadRequest {
  sm::Command query;
};

using ClientBody = std::variant<sm::Command, ReadRequest, AdminSplit,
                                AdminMerge, AdminMember, AdminSetRange>;

struct ClientRequest {
  uint64_t req_id = 0;
  NodeId from = kNoNode;
  ClientBody body;
};

struct ClientReply {
  uint64_t req_id = 0;
  NodeId from = kNoNode;
  Status status;
  /// Opaque result payload (the machine's CmdResult::payload): a value for
  /// gets, an encoded entry batch for scans — the typed service layer
  /// (kv::DecodeResponse) interprets it.
  std::string value;
  NodeId leader_hint = kNoNode;
  /// The key range the replying node currently serves and its consensus
  /// epoch. Routing clients compare these against their cached shard map:
  /// a kWrongShard rejection (or a reply from a higher epoch with a
  /// different range) means the map is stale and must be refetched.
  KeyRange serving_range;
  uint32_t epoch = 0;
};

// ---------------------------------------------------------------------------
// TC baseline (cluster-manager-driven split/merge emulation, §VII-B/C).

/// Fetch a point-in-time snapshot of `range` from a cluster's leader (the
/// CM's data-migration step; transfer time is charged by the network).
struct RangeSnapReq {
  NodeId from = kNoNode;
  KeyRange range;
};

struct RangeSnapReply {
  NodeId from = kNoNode;
  bool ok = false;
  bool retry = false;
  NodeId leader_hint = kNoNode;
  KeyRange range;  // echoed from the request (matches replies to steps)
  sm::SnapshotPtr snap;
};

/// Wipe a node and restart it as a member of a freshly bootstrapped cluster
/// with the given data (the CM's "install snapshot + config and restart"
/// step). An empty member list retires the node (TC merge termination).
struct BootstrapReq {
  NodeId from = kNoNode;
  uint64_t op_id = 0;  // idempotency token
  ConfigState genesis;
  sm::SnapshotPtr data;  // may be null
};

struct BootstrapAck {
  NodeId from = kNoNode;
  uint64_t op_id = 0;
};

// ---------------------------------------------------------------------------
// Naming service (§V): a loosely consistent, always-available registry used
// only for long-term failure recovery.

struct NamingRegister {
  ClusterUid uid = 0;
  uint32_t epoch = 0;
  std::vector<NodeId> members;
  KeyRange range;
};

struct NamingLookupReq {
  NodeId from = kNoNode;
};

struct NamingLookupReply {
  std::vector<NamingRegister> clusters;
};

// ---------------------------------------------------------------------------

using Message =
    std::variant<RequestVote, VoteReply, AppendEntries, AppendReply,
                 InstallSnapshot, InstallSnapshotReply, CommitNotify,
                 PullRequest, PullReply, MergePrepareReq, MergePrepareReply,
                 MergeCommitReq, MergeCommitReply, MergeFinalize, ExchangeDone,
                 SnapPullReq, SnapPullReply, ReadIndexProbe, ReadIndexAck,
                 ClientRequest, ClientReply, RangeSnapReq, RangeSnapReply,
                 BootstrapReq, BootstrapAck, NamingRegister, NamingLookupReq,
                 NamingLookupReply>;

/// Exact on-wire size: the length net::EncodeMessage writes for `m`,
/// counted without encoding (net::EncodedSize).
size_t MessageBytes(const Message& m);

/// Short human-readable tag ("AppendEntries", ...) for logs and traces.
const char* MessageName(const Message& m);

/// Shared handle to an immutable message, created by MakeMessage. Carries
/// the message's on-wire size, computed exactly once — senders that fan a
/// message out (heartbeats, commit notifies) used to re-walk the payload
/// with MessageBytes on every Send. Converts to the network's opaque
/// payload type; receivers cast back to `const Message`.
///
/// Also carries the flight recorder's causal TraceCtx as out-of-band
/// metadata: pure annotation, excluded from wire_bytes() (MessageBytes
/// walks msg only), and mutable-after-make because a sender stamps the
/// context between MakeMessage and Send. Worlds are single-threaded, so
/// the mutation is unsynchronized by design.
class MessagePtr {
 public:
  MessagePtr() = default;

  const Message& operator*() const { return rec_->msg; }
  const Message* operator->() const { return &rec_->msg; }
  const Message* get() const { return rec_ ? &rec_->msg : nullptr; }
  explicit operator bool() const { return rec_ != nullptr; }

  /// Encoded size (MessageBytes), memoized at MakeMessage.
  size_t wire_bytes() const { return rec_ ? rec_->bytes : 0; }

  obs::TraceCtx trace_ctx() const {
    return rec_ ? rec_->ctx : obs::TraceCtx{};
  }
  void set_trace_ctx(obs::TraceCtx ctx) const {
    if (rec_) rec_->ctx = ctx;
  }

  /// View as the network's opaque payload (shares ownership).
  std::shared_ptr<const Message> shared() const {
    if (!rec_) return nullptr;
    return std::shared_ptr<const Message>(rec_, &rec_->msg);
  }
  /* implicit */ operator std::shared_ptr<const void>() const {  // NOLINT
    return shared();
  }

 private:
  struct Rec {
    size_t bytes = 0;
    mutable obs::TraceCtx ctx;  // annotation only; never on the wire
    Message msg;
  };

  explicit MessagePtr(std::shared_ptr<const Rec> rec) : rec_(std::move(rec)) {}

  template <typename T>
  friend MessagePtr MakeMessage(T&& body);

  std::shared_ptr<const Rec> rec_;
};

template <typename T>
MessagePtr MakeMessage(T&& body) {
  auto rec = std::make_shared<MessagePtr::Rec>();
  rec->msg = Message(std::forward<T>(body));
  rec->bytes = MessageBytes(rec->msg);
  return MessagePtr(std::move(rec));
}

}  // namespace recraft::raft
