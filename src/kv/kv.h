// Key-value state machine replicated by the consensus layer. Mirrors the
// etcd layer of the paper: an ordered map restricted to a key range, with
// per-client sessions for exactly-once command application and snapshot
// support (serialize / restore / range-restrict / merge).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/key_range.h"
#include "common/status.h"
#include "common/types.h"
#include "kv/btree.h"

namespace recraft::kv {

enum class OpType : uint8_t {
  kPut = 0,
  kGet = 1,
  kDelete = 2,
  kCas = 3,   // compare-and-swap: expected -> value (expected "" = absent)
  kScan = 4,  // bounded range read [key, scan_hi) capped at scan_limit
};
constexpr OpType EnumLast(OpType) { return OpType::kScan; }

/// The typed KV request — the service layer's Request type. Writes (Put /
/// Delete / CAS) travel through the log as opaque sm::Command bytes; reads
/// (Get / Scan) are normally served via the leader's ReadIndex path (see
/// kv/service.h for the encoding and core::Node for the protocol).
struct Command {
  OpType op = OpType::kPut;
  std::string key;
  std::string value;       // puts and CAS (the desired value)
  std::string expected;    // CAS only: required current value ("" = absent)
  std::string scan_hi;     // scans only: exclusive upper bound ("" = range end)
  uint32_t scan_limit = 0; // scans only: max entries (0 = service default)
  uint64_t client_id = 0;  // 0 = no session (no dedup)
  uint64_t seq = 0;        // per-client sequence number
};

struct OpResult {
  Status status;
  std::string value;  // gets: the value; scans: the encoded entry batch
};

/// Per-client dedup record: the last applied sequence number and its result,
/// so a retried command is answered without re-applying.
struct Session {
  uint64_t last_seq = 0;
  OpResult last_result;
};

/// Snapshot payload: (key, value) pairs sorted by key — the invariant every
/// producer (TakeSnapshot, Deserialize) upholds and every consumer (Restore's
/// bulk build, MergeIn, serialization order) relies on. A flat sorted vector
/// instead of a std::map: snapshot construction is a straight ordered copy
/// with no per-node allocation, and iteration is cache-linear. The keyed
/// accessors do sorted lookup/insert for convenience call sites (tests,
/// admin tooling) — hot paths build in order and never use them.
class SnapshotData : public std::vector<std::pair<std::string, std::string>> {
 public:
  using Base = std::vector<std::pair<std::string, std::string>>;
  using Base::Base;
  using Base::at;
  using Base::operator[];

  /// Value for `key`, inserting (sorted) when absent.
  std::string& operator[](const std::string& key);
  /// Value for `key`; the key must be present.
  const std::string& at(const std::string& key) const;
};

/// An immutable point-in-time state of a store. Shared by pointer; the
/// consensus layer carries it as Serialize()'s bytes inside an sm::Snapshot
/// (KvMachine::Wrap), and the network charges that encoding's length.
struct Snapshot {
  KeyRange range;
  SnapshotData data;
  std::map<uint64_t, Session> sessions;

  std::vector<uint8_t> Serialize() const;
  static Result<Snapshot> Deserialize(const std::vector<uint8_t>& bytes);
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// The mutable state machine. Not thread-safe; the simulator is single-
/// threaded by construction.
class Store {
 public:
  explicit Store(KeyRange range = KeyRange::Full()) : range_(std::move(range)) {}

  /// Apply a command. Commands outside the store's range are rejected with
  /// kOutOfRange. Session-bearing commands are applied at most once: a
  /// command with seq <= the session's last_seq returns the recorded result.
  OpResult Apply(const Command& cmd);

  /// Point read against the applied state (the ReadIndex serve path and
  /// tests; reads can also travel through the log as kGet commands).
  Result<std::string> Get(const std::string& key) const;

  /// Bounded range read: up to `limit` entries with lo <= key < hi (hi ""
  /// means "to the end of the store's range"), clamped to range().
  std::vector<std::pair<std::string, std::string>> Scan(
      const std::string& lo, const std::string& hi, size_t limit) const;

  const KeyRange& range() const { return range_; }
  size_t size() const { return data_.size(); }
  size_t ApproxBytes() const { return approx_bytes_; }

  /// The stored key at `fraction` (in (0,1)) of the sorted key population —
  /// the placement driver's split-point picker (fraction 0.5 = median).
  /// The returned key is strictly inside range() (valid as a split key);
  /// fails when fewer than two distinct keys exist.
  Result<std::string> KeyAtFraction(double fraction) const;

  /// Point-in-time copy of the whole store.
  SnapshotPtr TakeSnapshot() const;

  /// Point-in-time copy restricted to `sub` (sub must be inside range()).
  Result<SnapshotPtr> TakeSnapshot(const KeyRange& sub) const;

  /// Replace all state with the snapshot's.
  void Restore(const Snapshot& snap);

  /// Shrink to `sub` (a subrange of the current range), discarding keys
  /// outside it. Used when a subcluster completes a split.
  Status RestrictRange(const KeyRange& sub);

  /// Force the range to `range` (need not nest with the current range),
  /// discarding keys outside it — the TC install-and-rebase step. Unlike a
  /// snapshot round trip this touches no surviving entry.
  void Rebase(const KeyRange& range);

  /// Absorb a snapshot of an adjacent, disjoint range (merge data exchange).
  /// Sessions are unioned keeping the larger last_seq per client.
  Status MergeIn(const Snapshot& snap);

 private:
  KeyRange range_;
  BTreeMap data_;  // the B+-tree fast path (see kv/btree.h)
  std::map<uint64_t, Session> sessions_;
  size_t approx_bytes_ = 0;
};

}  // namespace recraft::kv
