// The replicated-state-machine boundary of the system. The paper's
// split/merge reconfiguration protocol is state-machine-generic — nothing in
// C_prep / C_tx / the snapshot exchange depends on the payload being a KV
// map — and this interface is where that genericity becomes real: the
// consensus core (core::Node), the log (raft::LogEntry), the persistence
// codec and the harness all speak *opaque command bytes in / opaque result
// bytes out* plus the handful of range-structured operations the
// reconfiguration protocols need (snapshot take/restore, RestrictRange,
// MergeIn, SplitHint).
//
// The one concession to the system's range-partitioned nature: every
// command carries its key-space coordinate (`Command::key`). The consensus
// layer is range-aware by construction (splits, merges and routing all
// speak KeyRange), so the coordinate lives beside the opaque body — it lets
// a leader reject mis-routed commands (kWrongShard) without decoding them.
//
// Implementations: kv::KvMachine (src/kv/kv_machine.h) wraps the ordered KV
// store; sm::QueueMachine (queue_machine.h) is a deliberately different
// machine (ordered per-topic event queues with destructive dequeues) that
// keeps the boundary honest in tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/key_range.h"
#include "common/status.h"
#include "common/types.h"

namespace recraft::sm {

/// A client command carried as a consensus log entry payload. The body is
/// opaque to everything between the service client and the state machine.
struct Command {
  /// Key-space coordinate for routing and the leader's range check. "" is
  /// a legal coordinate (the lowest — only the leftmost shard serves it).
  std::string key;
  /// Machine-defined encoding of the operation.
  std::vector<uint8_t> body;
};

/// The machine's answer to a command or query: a status plus opaque result
/// bytes the service layer decodes (a value, a scan batch, a queue head...).
struct CmdResult {
  Status status;
  std::string payload;
};

/// An immutable point-in-time state of a machine, serialized by the machine
/// itself. Shared by pointer: snapshot "transfer" in the simulator moves the
/// pointer while the network charges the carrying message's encoded size.
struct Snapshot {
  KeyRange range;              // the key span this snapshot covers
  std::vector<uint8_t> data;   // machine-serialized state
  uint64_t items = 0;          // item count (metrics, logs)

  size_t SerializedBytes() const { return data.size(); }
};
using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// The replicated state machine. Not thread-safe; the simulator is single-
/// threaded by construction. Apply() runs exactly the committed log order on
/// every replica; Query() is the ReadIndex serve path and MUST NOT mutate.
class StateMachine {
 public:
  virtual ~StateMachine() = default;

  virtual const char* Name() const = 0;

  /// Apply a committed command. Exactly-once semantics for retried commands
  /// (client sessions) are the machine's responsibility — a retry committed
  /// at a later index must return the recorded result, not re-execute.
  virtual CmdResult Apply(const Command& cmd) = 0;

  /// Execute a read-only command against the applied state (the ReadIndex
  /// path: no log entry, no session bookkeeping). Mutating queries are a
  /// machine bug; implementations must reject bodies that would mutate.
  virtual CmdResult Query(const Command& query) const = 0;

  // --- metrics (placement driver, compaction policy, logs) ----------------
  virtual const KeyRange& range() const = 0;
  virtual size_t Size() const = 0;         // item count
  virtual size_t ApproxBytes() const = 0;  // resident byte estimate

  /// A key at `fraction` (in (0,1)) of the machine's populated key space —
  /// the placement driver's split-point picker (0.5 = median). The returned
  /// key must be strictly inside range(); fails when the population is too
  /// small to split.
  virtual Result<std::string> SplitHint(double fraction) const = 0;

  // --- snapshots (replication, compaction, merge exchange) ----------------
  virtual SnapshotPtr TakeSnapshot() const = 0;
  /// Point-in-time state restricted to `sub` (must be inside range()).
  virtual Result<SnapshotPtr> TakeSnapshot(const KeyRange& sub) const = 0;
  /// Replace all state with the snapshot's (adopting its range).
  virtual Status Restore(const Snapshot& snap) = 0;

  // --- reconfiguration hooks (split / merge / bootstrap) ------------------
  /// Wipe all state and adopt `range` (genesis replay, merged-log genesis).
  virtual void Reset(const KeyRange& range) = 0;
  /// Force the machine's range to `range` (need not nest with the current
  /// range), discarding items outside it. The TC baseline's
  /// install-snapshot-and-rebase step.
  virtual Status Rebase(const KeyRange& range) = 0;
  /// Shrink to `sub` (a validated subrange of the current range), discarding
  /// items outside it. Split completion.
  virtual Status RestrictRange(const KeyRange& sub) = 0;
  /// Absorb a snapshot of an adjacent, disjoint range (merge data
  /// exchange). Session/dedup state is unioned by the machine.
  virtual Status MergeIn(const Snapshot& snap) = 0;
};

using MachinePtr = std::unique_ptr<StateMachine>;

/// Constructs a fresh machine over `range`. The node keeps the factory so
/// boot-from-storage and TC re-bootstraps can rebuild the machine type the
/// world was configured with.
using MachineFactory = std::function<MachinePtr(const KeyRange&)>;

}  // namespace recraft::sm
