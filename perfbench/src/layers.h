// Per-layer instruments the traced run wraps around the program's public
// seams. Nothing here adds an emit site to the program: each class either
// decorates an interface the program already injects (the state machine
// factory, the Rebalancer) or reads the flight recorder the program
// already fills.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/world.h"
#include "kv/kv_machine.h"
#include "obs/trace.h"
#include "report.h"
#include "shard/rebalancer.h"

namespace perfbench {

using namespace recraft;  // NOLINT: benchmark-local convenience

// --- kv: a timing decorator over kv::KvMachine ------------------------------

struct KvLayerStats {
  bool collecting = false;  // only the measured window counts
  std::vector<uint32_t> apply_ns;
  std::vector<uint32_t> query_ns;
  uint64_t busy_ns = 0;       // Apply + Query + snapshot-path calls
  uint64_t snapshot_ns = 0;   // TakeSnapshot / Restore / MergeIn
  uint64_t snapshot_bytes = 0;
};

/// Forwards every call to a KvMachine and times Apply, Query and the
/// snapshot path. Reports a different Name() than "kv" so nothing mistakes
/// it for the concrete machine; StoreOf() below reaches through it.
class TimedKvMachine final : public sm::StateMachine {
 public:
  TimedKvMachine(KeyRange range, KvLayerStats* stats)
      : inner_(std::move(range)), stats_(stats) {}

  const char* Name() const override { return "kv-timed"; }
  const kv::KvMachine& inner() const { return inner_; }

  sm::CmdResult Apply(const sm::Command& cmd) override {
    auto t0 = WallClock::now();
    sm::CmdResult r = inner_.Apply(cmd);
    Record(&stats_->apply_ns, NanosSince(t0));
    return r;
  }
  sm::CmdResult Query(const sm::Command& query) const override {
    auto t0 = WallClock::now();
    sm::CmdResult r = inner_.Query(query);
    Record(&stats_->query_ns, NanosSince(t0));
    return r;
  }

  const KeyRange& range() const override { return inner_.range(); }
  size_t Size() const override { return inner_.Size(); }
  size_t ApproxBytes() const override { return inner_.ApproxBytes(); }
  Result<std::string> SplitHint(double fraction) const override {
    return inner_.SplitHint(fraction);
  }

  sm::SnapshotPtr TakeSnapshot() const override {
    auto t0 = WallClock::now();
    sm::SnapshotPtr s = inner_.TakeSnapshot();
    RecordSnapshot(NanosSince(t0), s ? s->SerializedBytes() : 0);
    return s;
  }
  Result<sm::SnapshotPtr> TakeSnapshot(const KeyRange& sub) const override {
    auto t0 = WallClock::now();
    auto s = inner_.TakeSnapshot(sub);
    RecordSnapshot(NanosSince(t0),
                   s.ok() && *s ? (*s)->SerializedBytes() : 0);
    return s;
  }
  Status Restore(const sm::Snapshot& snap) override {
    auto t0 = WallClock::now();
    Status s = inner_.Restore(snap);
    RecordSnapshot(NanosSince(t0), snap.SerializedBytes());
    return s;
  }
  void Reset(const KeyRange& range) override { inner_.Reset(range); }
  Status Rebase(const KeyRange& range) override { return inner_.Rebase(range); }
  Status RestrictRange(const KeyRange& sub) override {
    return inner_.RestrictRange(sub);
  }
  Status MergeIn(const sm::Snapshot& snap) override {
    auto t0 = WallClock::now();
    Status s = inner_.MergeIn(snap);
    RecordSnapshot(NanosSince(t0), snap.SerializedBytes());
    return s;
  }

 private:
  void Record(std::vector<uint32_t>* samples, uint64_t ns) const {
    if (!stats_->collecting) return;
    samples->push_back(static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX)));
    stats_->busy_ns += ns;
  }
  void RecordSnapshot(uint64_t ns, size_t bytes) const {
    if (!stats_->collecting) return;
    stats_->busy_ns += ns;
    stats_->snapshot_ns += ns;
    stats_->snapshot_bytes += bytes;
  }

  kv::KvMachine inner_;
  KvLayerStats* stats_;
};

inline sm::MachineFactory TimedKvFactory(KvLayerStats* stats) {
  return [stats](const KeyRange& range) -> sm::MachinePtr {
    return std::make_unique<TimedKvMachine>(range, stats);
  };
}

/// The KV store behind a node's machine, plain or timed.
inline const kv::Store& StoreOf(const core::Node& n) {
  if (const auto* timed = dynamic_cast<const TimedKvMachine*>(&n.machine())) {
    return timed->inner().store();
  }
  return harness::KvStoreOf(n);
}

// --- core: protocol spans read back from the flight recorder ---------------

/// Drains the recorder ring incrementally and keeps the durations of the
/// protocol spans whose begin falls inside the measured window.
class SpanCollector {
 public:
  explicit SpanCollector(const obs::Recorder& rec) : rec_(rec) {}

  void SetWindow(TimePoint start, TimePoint end) {
    win_start_ = start;
    win_end_ = end;
  }

  /// Process every record pushed since the last drain. Cheap to call often:
  /// it only snapshots the ring once half of it is new (or when forced).
  void Drain(bool force) {
    const uint64_t total = rec_.buffer().total();
    const uint64_t cap = rec_.buffer().capacity();
    if (total == processed_) return;
    if (!force && total - processed_ < cap / 2) return;
    if (total - processed_ > cap) overflowed_ = true;
    std::vector<obs::TraceRecord> snap = rec_.Snapshot();
    const uint64_t first = total - snap.size();
    for (uint64_t i = std::max(processed_, first); i < total; ++i) {
      Process(snap[i - first]);
    }
    processed_ = total;
  }

  bool overflowed() const { return overflowed_; }
  /// Spans of `name` that began inside the window (ended or not).
  uint64_t Begun(obs::Name name) const {
    auto it = begun_.find(name);
    return it == begun_.end() ? 0 : it->second;
  }
  /// Durations (sim us) of spans of `name` that began inside the window and
  /// ended with Outcome::kOk.
  const std::vector<Duration>& Ok(obs::Name name) const {
    static const std::vector<Duration> kEmpty;
    auto it = ok_.find(name);
    return it == ok_.end() ? kEmpty : it->second;
  }

 private:
  static bool Tracked(obs::Name n) {
    return n == obs::Name::kElection || n == obs::Name::kReadRound ||
           n == obs::Name::kSplit || n == obs::Name::kMerge ||
           n == obs::Name::kMergeExchange;
  }

  void Process(const obs::TraceRecord& r) {
    if (!Tracked(r.name)) return;
    if (r.kind == obs::Kind::kSpanBegin) {
      if (r.ts < win_start_ || r.ts >= win_end_) return;
      ++begun_[r.name];
      open_[r.span] = r.ts;
    } else if (r.kind == obs::Kind::kSpanEnd) {
      auto it = open_.find(r.span);
      if (it == open_.end()) return;
      if (r.b == static_cast<uint64_t>(obs::Outcome::kOk)) {
        ok_[r.name].push_back(r.ts - it->second);
      }
      open_.erase(it);
    }
  }

  const obs::Recorder& rec_;
  uint64_t processed_ = 0;
  bool overflowed_ = false;
  TimePoint win_start_ = 0;
  TimePoint win_end_ = 0;
  std::unordered_map<uint64_t, TimePoint> open_;
  std::map<obs::Name, uint64_t> begun_;
  std::map<obs::Name, std::vector<Duration>> ok_;
};

// --- shard: timing and lineage around the Rebalancer ------------------------

/// Wraps the rebalancer the placement driver calls. Times each split and
/// merge from the call to its result (the driver applies the map delta
/// right after, without running the event loop), tracks how long the
/// affected key range goes without a completed op, and records every group
/// the plane ever hands data to, in creation order, for the history check.
class TimingRebalancer final : public shard::Rebalancer {
 public:
  struct Action {
    KeyRange range;        // the key span the action touches
    TimePoint start = 0;
    TimePoint end = 0;     // 0 while running
    bool ok = false;
    // Longest gap between completed ops on `range`, from `start` to the
    // first completion after `end`.
    TimePoint last_op = 0;
    Duration blocked = 0;
    bool served_after = false;
  };

  TimingRebalancer(harness::World& world, shard::Rebalancer& inner)
      : world_(world), inner_(inner) {}

  const char* name() const override { return inner_.name(); }

  Result<shard::RebalanceResult> Split(
      const shard::ShardInfo& s, const std::string& split_key,
      const std::vector<NodeId>& extra_nodes) override {
    Begin(s.range);
    auto r = inner_.Split(s, split_key, extra_nodes);
    End(r);
    return r;
  }

  Result<shard::RebalanceResult> Merge(const shard::ShardInfo& left,
                                       const shard::ShardInfo& right) override {
    auto span = KeyRange::MergeAdjacent({left.range, right.range});
    Begin(span.ok() ? *span : left.range);
    auto r = inner_.Merge(left, right);
    End(r);
    return r;
  }

  /// Feed every completed client op.
  void OnOpComplete(const std::string& key, TimePoint when) {
    for (Action& a : actions_) {
      if (a.served_after || when < a.start || !a.range.Contains(key)) continue;
      a.blocked = std::max(a.blocked, when - a.last_op);
      a.last_op = when;
      if (a.end != 0 && when > a.end) a.served_after = true;
    }
  }

  const std::vector<Action>& actions() const { return actions_; }
  /// (uid, range) of every group created by a completed action, in order.
  const std::vector<std::pair<ClusterUid, KeyRange>>& created() const {
    return created_;
  }

 private:
  void Begin(const KeyRange& range) {
    Action a;
    a.range = range;
    a.start = world_.now();
    a.last_op = a.start;
    actions_.push_back(a);
  }
  void End(const Result<shard::RebalanceResult>& r) {
    Action& a = actions_.back();
    a.end = world_.now();
    a.ok = r.ok();
    if (r.ok()) {
      for (const auto& s : r->shards) created_.emplace_back(s.uid, s.range);
    }
  }

  harness::World& world_;
  shard::Rebalancer& inner_;
  std::vector<Action> actions_;
  std::vector<std::pair<ClusterUid, KeyRange>> created_;
};

}  // namespace perfbench
