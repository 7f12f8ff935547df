// Log entries and their payloads. Configuration changes travel as special
// log entries applied wait-free on append (Raft reconfiguration style);
// ReCraft adds the split (C_joint / C_new), merge-transaction (CTX') and
// merge-outcome (C_new / C_abort) payloads.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "raft/config.h"
#include "raft/epoch_term.h"
#include "sm/state_machine.h"

namespace recraft::raft {

struct NoOp {};

/// The genesis configuration, written as entry 1 of every bootstrap log so
/// the log is self-contained: a brand-new node added later reconstructs the
/// full membership/range by replay alone.
struct ConfInit {
  std::vector<NodeId> members;
  KeyRange range;
  ClusterUid uid = 0;
};

/// C_joint: enter the split's joint mode (changes the election quorum only).
struct ConfSplitJoint {
  SplitPlan plan;
};

/// Split C_new: leave joint mode; each node extracts its own C_sub.
struct ConfSplitNew {
  SplitPlan plan;
};

/// Single-cluster membership change (ReCraft resize family or Raft
/// baselines).
struct ConfMember {
  MemberChange change;
};

/// CTX': the merge transaction with this cluster's local 2PC decision.
struct ConfMergeTx {
  MergePlan plan;
  bool decision_ok = false;
};

/// The 2PC outcome: C_new (commit=true) or C_abort (commit=false).
struct ConfMergeOutcome {
  MergePlan plan;
  bool commit = false;
};

/// Replace the cluster's key range, optionally absorbing a bulk snapshot of
/// an adjacent range. Used by the TC (TiKV/CockroachDB-emulation) baseline:
/// its cluster manager shrinks the source cluster after a split and grows
/// the surviving cluster (with the coalesced data) during a merge.
struct ConfSetRange {
  KeyRange range;
  sm::SnapshotPtr absorb;  // may be null (pure range change)
};

/// Coordinator-cluster marker: every participant acknowledged the abort of
/// merge transaction `tx`, so members may drop the retransmission state they
/// kept since C_abort applied. Without this record a coordinator leader
/// elected *after* the abort applied had nothing to resume from (the abort
/// clears the config's merge fields), and a participant whose one-shot abort
/// fan-out was lost stayed blocked forever.
struct ConfAbortSettled {
  TxId tx = 0;
};

using Payload = std::variant<NoOp, sm::Command, ConfInit, ConfSplitJoint,
                             ConfSplitNew, ConfMember, ConfMergeTx,
                             ConfMergeOutcome, ConfSetRange, ConfAbortSettled>;

struct LogEntry {
  Index index = 0;
  uint64_t term = 0;  // EpochTerm raw value at creation
  Payload payload;

  EpochTerm et() const { return EpochTerm(term); }
  bool IsConfig() const {
    return !std::holds_alternative<NoOp>(payload) &&
           !std::holds_alternative<sm::Command>(payload);
  }
  std::string Describe() const;
};

}  // namespace recraft::raft
