#include "kv/kv_machine.h"

#include "kv/service.h"

namespace recraft::kv {

sm::CmdResult KvMachine::Apply(const sm::Command& cmd) {
  auto decoded = DecodeCommand(cmd);
  if (!decoded.ok()) return {decoded.status(), {}};
  OpResult res = store_.Apply(*decoded);
  return {std::move(res.status), std::move(res.value)};
}

sm::CmdResult KvMachine::Query(const sm::Command& query) const {
  auto decoded = DecodeCommand(query);
  if (!decoded.ok()) return {decoded.status(), {}};
  switch (decoded->op) {
    case OpType::kGet: {
      auto got = store_.Get(decoded->key);
      if (!got.ok()) return {got.status(), {}};
      return {OkStatus(), std::move(*got)};
    }
    case OpType::kScan: {
      if (!store_.range().Contains(decoded->key)) {
        return {OutOfRange(decoded->key), {}};
      }
      auto batch = store_.Scan(
          decoded->key, decoded->scan_hi,
          decoded->scan_limit == 0 ? kDefaultScanLimit : decoded->scan_limit);
      return {OkStatus(), EncodeScanBatch(batch)};
    }
    default:
      return {Rejected("mutating op on the read path"), {}};
  }
}

sm::SnapshotPtr KvMachine::Wrap(const kv::SnapshotPtr& snap) {
  auto out = std::make_shared<sm::Snapshot>();
  out->range = snap->range;
  out->data = snap->Serialize();
  out->items = snap->data.size();
  return out;
}

Result<kv::Snapshot> KvMachine::Unwrap(const sm::Snapshot& snap) {
  return kv::Snapshot::Deserialize(snap.data);
}

sm::SnapshotPtr KvMachine::TakeSnapshot() const {
  return Wrap(store_.TakeSnapshot());
}

Result<sm::SnapshotPtr> KvMachine::TakeSnapshot(const KeyRange& sub) const {
  auto snap = store_.TakeSnapshot(sub);
  if (!snap.ok()) return snap.status();
  return Wrap(*snap);
}

Status KvMachine::Restore(const sm::Snapshot& snap) {
  auto parsed = Unwrap(snap);
  if (!parsed.ok()) return parsed.status();
  store_.Restore(*parsed);
  return OkStatus();
}

Status KvMachine::Rebase(const KeyRange& range) {
  store_.Rebase(range);
  return OkStatus();
}

Status KvMachine::MergeIn(const sm::Snapshot& snap) {
  auto parsed = Unwrap(snap);
  if (!parsed.ok()) return parsed.status();
  return store_.MergeIn(*parsed);
}

sm::MachineFactory KvMachineFactory() {
  return [](const KeyRange& range) -> sm::MachinePtr {
    return std::make_unique<KvMachine>(range);
  };
}

}  // namespace recraft::kv
