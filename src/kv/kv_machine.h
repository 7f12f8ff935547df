// kv::Store adapted to the sm::StateMachine boundary: the KV map is *one*
// state machine the consensus core can replicate, no longer a hard-wired
// dependency. Commands arrive as opaque bytes (kv/service.h encoding),
// snapshots as the store's own serialized format wrapped in sm::Snapshot
// (whose network charge is that format's encoded length).
#pragma once

#include "kv/kv.h"
#include "sm/state_machine.h"

namespace recraft::kv {

class KvMachine final : public sm::StateMachine {
 public:
  explicit KvMachine(KeyRange range) : store_(std::move(range)) {}

  const char* Name() const override { return "kv"; }

  sm::CmdResult Apply(const sm::Command& cmd) override;
  sm::CmdResult Query(const sm::Command& query) const override;

  const KeyRange& range() const override { return store_.range(); }
  size_t Size() const override { return store_.size(); }
  size_t ApproxBytes() const override { return store_.ApproxBytes(); }
  Result<std::string> SplitHint(double fraction) const override {
    return store_.KeyAtFraction(fraction);
  }

  sm::SnapshotPtr TakeSnapshot() const override;
  Result<sm::SnapshotPtr> TakeSnapshot(const KeyRange& sub) const override;
  Status Restore(const sm::Snapshot& snap) override;
  void Reset(const KeyRange& range) override { store_ = Store(range); }
  Status Rebase(const KeyRange& range) override;
  Status RestrictRange(const KeyRange& sub) override {
    return store_.RestrictRange(sub);
  }
  Status MergeIn(const sm::Snapshot& snap) override;

  /// Direct access for tests, checkers and benches (never the consensus
  /// core). See harness's KvStoreOf for the checked downcast.
  const Store& store() const { return store_; }
  Store& store() { return store_; }

  /// Wrap a structured store snapshot in the opaque boundary type.
  static sm::SnapshotPtr Wrap(const kv::SnapshotPtr& snap);
  /// Parse opaque snapshot bytes back into the structured form.
  static Result<kv::Snapshot> Unwrap(const sm::Snapshot& snap);

 private:
  Store store_;
};

/// Factory the harness installs by default (core::Options::machine_factory).
sm::MachineFactory KvMachineFactory();

}  // namespace recraft::kv
