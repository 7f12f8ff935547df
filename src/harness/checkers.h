// Runtime checkers for the safety properties the paper proves (§VI):
//
//  * Election Safety (Def. 2)        — at most one leader per
//                                      (cluster, epoch, term), ever;
//  * Log Matching / State Machine
//    Safety (Defs. 3, 7, Thm. 1)     — applied entries at the same
//                                      (cluster, index) are identical on
//                                      every node;
//  * Cluster Well-Formedness (Def. 6)— same-epoch clusters are identical or
//                                      disjoint;
//  * Session linearizability          — per-key reads observe the committed
//                                      write order, sessions apply at most
//                                      once.
//
// The checkers observe the world (sampled every tick and on demand) and
// drain the nodes' applied-entry traces; property tests sweep random fault
// schedules and assert no violation is ever recorded.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/world.h"

namespace recraft::harness {

class SafetyChecker {
 public:
  explicit SafetyChecker(World& world) : world_(world) {}

  /// Sample leadership and configurations now, and drain applied traces.
  /// Call frequently (e.g. every simulated tick) during property tests.
  void Observe();

  /// Install a recurring observation event (every `interval`).
  void AttachPeriodic(Duration interval = 10 * kMillisecond);

  const std::vector<std::string>& violations() const { return violations_; }
  bool ok() const { return violations_.empty(); }
  /// Human-readable summary of all violations (empty string when ok).
  std::string Report() const;

  /// Applied kv-commands per cluster uid in apply order (for the
  /// linearizability checker below).
  const std::map<ClusterUid, std::vector<kv::Command>>& applied_kv() const {
    return applied_kv_;
  }

 private:
  void CheckElectionSafety();
  void CheckWellFormedness();
  void DrainApplied();
  void Violate(std::string what);

  World& world_;
  // (uid, epoch, term) -> leader node observed.
  std::map<std::tuple<ClusterUid, uint32_t, uint32_t>, NodeId> leaders_;
  // (uid, index) -> (term, payload hash) of the applied entry.
  std::map<std::pair<ClusterUid, Index>, std::pair<uint64_t, size_t>> applied_;
  // First observer of each (uid, index): detect divergent re-application.
  std::map<ClusterUid, std::vector<kv::Command>> applied_kv_;
  std::set<std::pair<ClusterUid, Index>> kv_recorded_;
  std::vector<std::string> violations_;
};

/// Replays a cluster's applied command sequence with the same session-dedup
/// semantics as kv::Store (a retried command re-committed at a later index
/// must not mutate twice) and returns the implied final state. Tests compare
/// it against live stores: together with SafetyChecker's single-apply-order
/// guarantee this witnesses linearizability of the KV service.
///
/// Because the replay dedups exactly as the store does, it cannot see a
/// lost acknowledgement: a command the store wrongly answered from a
/// session's cache is skipped by the replay too, so both agree. Only the
/// client side knows what it saw acknowledged; the presence checks in
/// workload_test and shard_test compare that set against the stores.
class KvHistoryChecker {
 public:
  /// Replay commands; the result maps key -> value for keys within `range`.
  std::map<std::string, std::string> Replay(
      const std::vector<kv::Command>& commands,
      const KeyRange& range = KeyRange::Full());

  /// Compare a live store against the replayed history. Returns
  /// discrepancies (restricted to the store's own range).
  std::vector<std::string> CompareStore(
      const std::vector<kv::Command>& commands, const kv::Store& store);
};

}  // namespace recraft::harness
