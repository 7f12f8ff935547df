// The pluggable persistence interface of the node: everything a ReCraft
// node must be able to rebuild after losing all volatile state — hard state
// (term / vote / commit), the log, the compaction snapshot, the sealed
// merge-exchange snapshots, and the exchange runtime metadata — flows
// through this interface. Every node has a backend (core::Node holds a
// Storage&); two implementations:
//
//   * InMemoryStorage — the "durable medium" is the object itself. No
//     serialization, no latency; the default for simulated worlds, and the
//     backend behind World::CrashNode / RestartNode without byte-level
//     modeling.
//   * WalStorage      — group-committed, write-batched records over a
//     deterministic SimDisk, with CRC-framed replay and injectable crash
//     points (wal_storage.h).
//
// Durability contract the node relies on:
//   - DurableIndex(): log entries at or below it survive any crash. The
//     node defers follower acks and the leader's own commit-quorum vote
//     until the entries they cover are durable, so a committed entry is
//     durable on a full quorum — Raft's safety argument carries over to
//     crash-recovery runs unchanged.
//   - PersistHardState flushes synchronously whenever term or vote changed
//     (a node must never forget a granted vote), and may batch pure
//     commit-index advances.
//   - InstallSnapshot / PersistSealed / PersistExchangeMeta are atomic and
//     synchronous (rare, bulk writes).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "raft/entry.h"
#include "raft/entry_slab.h"
#include "raft/log.h"
#include "raft/messages.h"

namespace recraft::storage {

/// Raft's durable per-node triple, plus the commit index (an optimization:
/// replay applies straight to the persisted commit point at boot instead of
/// waiting to rediscover it from the next leader).
struct HardState {
  uint64_t term = 0;  // EpochTerm raw
  NodeId voted_for = kNoNode;
  Index commit = 0;

  bool operator==(const HardState&) const = default;
};

/// Durable image of a merge's post-commit exchange GC bookkeeping.
struct ExchangeGcImage {
  TxId tx = 0;
  std::vector<NodeId> resumed;
  std::vector<NodeId> targets;
  std::vector<NodeId> done;
  bool self_done = false;
};

/// Durable merge-exchange runtime: the pending plan (a resumed member whose
/// store is not yet assembled) and the GC state for sealed snapshots.
struct ExchangeMeta {
  std::optional<raft::MergePlan> pending_plan;
  std::vector<ExchangeGcImage> gc;
};

/// Everything recovery can reconstruct from the durable medium alone.
struct BootImage {
  bool present = false;  // false: blank disk (fresh node)
  HardState hard;
  raft::RaftSnapshotPtr snap;  // may be null
  Index base_index = 0;        // log base (snapshot position)
  uint64_t base_term = 0;
  /// Contiguous above base. A zero-copy view over the backend's slabs —
  /// valid for as long as the image is held (slab slots are immutable).
  raft::EntrySpan entries;
  std::map<std::pair<TxId, int>, sm::SnapshotPtr> sealed;
  ExchangeMeta exchange;
};

/// Deterministic crash points for fault injection. All of them model what a
/// real disk can do to writes that were *in flight* (never acknowledged) at
/// the moment of the crash.
enum class CrashPoint : uint8_t {
  /// Pending (unflushed) bytes are lost cleanly at a batch boundary.
  kLosePending = 0,
  /// The tail record of the in-flight batch reaches the platter half-way:
  /// recovery must detect the torn record (CRC) and discard it.
  kTornTail,
  /// A whole-record prefix of the in-flight batch survives, the rest is
  /// lost: recovery accepts exactly the surviving records.
  kPartialBatch,
  /// The snapshot blob is durable but the WAL marker tying the log to it is
  /// lost (crash between snapshot install and log truncation): recovery
  /// must fall back to the previous snapshot + the longer log.
  kSnapLogDivergence,
};

struct CrashSpec {
  CrashPoint point = CrashPoint::kLosePending;
};

class Storage : public raft::LogSink {
 public:
  ~Storage() override = default;

  virtual void PersistHardState(const HardState& hs) = 0;
  /// Make `snap` the durable snapshot (atomic). Does not touch the log —
  /// the caller compacts/resets through the RaftLog, which forwards here.
  virtual void InstallSnapshot(const raft::RaftSnapshotPtr& snap) = 0;
  virtual void PersistSealed(TxId tx, int source,
                             const sm::SnapshotPtr& snap) = 0;
  virtual void PruneSealed(TxId tx) = 0;
  virtual void PersistExchangeMeta(const ExchangeMeta& meta) = 0;
  /// Drop every durable trace of this node (the TC baseline's wipe).
  virtual void WipeAll() = 0;

  /// Reconstruct the durable state. Replay mutates nothing except
  /// discarding a detected torn tail (an idempotent cut, so a crash during
  /// replay — a double crash — recovers to the identical image; without
  /// the cut, post-recovery writes would land behind the garbage and be
  /// unreadable after the next crash).
  virtual Result<BootImage> Load() = 0;

  /// Highest log index whose entries are all durable (snapshot or flushed
  /// WAL). The node's ack/commit gating pivots on this.
  virtual Index DurableIndex() const = 0;

  /// Force pending writes durable now (tests, benches).
  virtual void Sync() = 0;

  /// Apply a crash: discard or mangle not-yet-durable writes per the spec.
  /// The instance is dead afterwards; recovery opens a fresh one over the
  /// same medium.
  virtual void Crash(const CrashSpec& spec) = 0;

  /// Invoked from the top of the event loop whenever DurableIndex advances
  /// asynchronously (a group-commit flush completed). Never invoked
  /// synchronously from inside a mutation call.
  void SetDurableCallback(std::function<void()> cb) {
    durable_cb_ = std::move(cb);
  }

 protected:
  std::function<void()> durable_cb_;
};

using StoragePtr = std::unique_ptr<Storage>;

/// Storage whose durable medium is the object itself: state survives the
/// *node* object's destruction (World::CrashNode) but not the process. No
/// batching — everything is durable the moment the call returns, so
/// DurableIndex always equals the log end and the node's ack gating
/// collapses to the in-memory fast path.
class InMemoryStorage final : public Storage {
 public:
  // LogSink. Appends adopt the log's slab slot by reference — the "durable
  // medium" mirrors the same immutable slots the log cache points at.
  void OnLogAppend(const raft::EntryRef& e) override;
  void OnLogTruncateFrom(Index i) override;
  void OnLogCompactTo(Index i, uint64_t term) override;
  void OnLogReset(Index base, uint64_t term) override;

  void PersistHardState(const HardState& hs) override;
  void InstallSnapshot(const raft::RaftSnapshotPtr& snap) override;
  void PersistSealed(TxId tx, int source,
                     const sm::SnapshotPtr& snap) override;
  void PruneSealed(TxId tx) override;
  void PersistExchangeMeta(const ExchangeMeta& meta) override;
  void WipeAll() override;
  Result<BootImage> Load() override;
  Index DurableIndex() const override;
  void Sync() override {}
  void Crash(const CrashSpec& spec) override;

 private:
  bool present_ = false;
  HardState hard_;
  raft::RaftSnapshotPtr snap_;
  Index base_index_ = 0;
  uint64_t base_term_ = 0;
  raft::EntryList entries_;
  std::map<std::pair<TxId, int>, sm::SnapshotPtr> sealed_;
  ExchangeMeta meta_;
};

}  // namespace recraft::storage
