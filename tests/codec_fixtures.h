// One populated value of every byte format the system writes — each wire
// message tag, each WAL record type and log-payload tag, the snapshot, seal
// and exchange-metadata blobs, and the kv and queue machines' command,
// result and snapshot bodies — encoded through the public entry point
// production code uses. Shared by codec_golden_test (the bytes must not
// change) and codec_fuzz_test (mutations of them must decode or fail, never
// crash).
//
// Every fixture also knows how to decode a byte string of its format and
// encode the result again (`reencode`), through the same public decoders
// recovery and transport use: net::DecodeMessage, WalStorage::Load over a
// SimDisk, kv::DecodeCommand, kv::DecodeScanBatch, the machines' Restore
// and sm::DecodeQueueRequest.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/codec.h"
#include "kv/kv_machine.h"
#include "kv/service.h"
#include "net/wire.h"
#include "raft/entry_slab.h"
#include "raft/messages.h"
#include "sm/queue_machine.h"
#include "storage/sim_disk.h"
#include "storage/wal_storage.h"

namespace recraft::fixtures {

using Bytes = std::vector<uint8_t>;

struct Fixture {
  std::string name;
  Bytes bytes;
  /// Decode `in` as this fixture's format and encode the value again;
  /// nullopt when `in` does not decode.
  std::function<std::optional<Bytes>(const Bytes& in)> reencode;
};

inline std::string Hex(const Bytes& b) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (uint8_t c : b) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

// --- populated values -------------------------------------------------------

inline sm::SnapshotPtr SmSnap() {
  auto s = std::make_shared<sm::Snapshot>();
  s->range = KeyRange("c", "p");
  s->data = {0xde, 0xad, 0xbe, 0xef};
  s->items = 3;
  return s;
}

inline raft::SubCluster Sub(std::vector<NodeId> members, KeyRange range,
                            ClusterUid uid) {
  raft::SubCluster s;
  s.members = std::move(members);
  s.range = std::move(range);
  s.uid = uid;
  return s;
}

inline raft::SplitPlan Split() {
  raft::SplitPlan p;
  p.subs = {Sub({1, 2}, KeyRange("", "g"), 21),
            Sub({3, 4}, KeyRange("g", ""), 22)};
  return p;
}

inline raft::MergePlan Plan() {
  raft::MergePlan p;
  p.tx = 0x77;
  p.sources = {Sub({1, 2, 3}, KeyRange("", "m"), 11),
               Sub({4, 5}, KeyRange("m", ""), 12)};
  p.coordinator = 1;
  p.new_epoch = 6;
  p.new_uid = 0x1234;
  p.new_range = KeyRange::Full();
  p.resume_members = {1, 4};
  return p;
}

inline raft::MemberChange Change() {
  raft::MemberChange mc;
  mc.kind = raft::MemberChangeKind::kJointEnter;
  mc.nodes = {2, 9};
  return mc;
}

inline raft::ConfigState Config() {
  raft::ConfigState c;
  c.mode = raft::ConfigMode::kSplitJoint;
  c.members = {1, 2, 3};
  c.fixed_quorum = 2;
  c.range = KeyRange("b", "y");
  c.uid = 99;
  c.split = Split();
  c.joint_index = 14;
  c.cnew_index = 15;
  c.vanilla_joint = true;
  c.jc_old = {1, 2};
  c.merge_tx = Plan();
  c.merge_tx_index = 16;
  c.merge_decision_ok = true;
  c.merge_outcome_index = 17;
  c.merge_outcome_commit = true;
  return c;
}

inline raft::RaftSnapshotPtr RaftSnap() {
  auto s = std::make_shared<raft::RaftSnapshot>();
  s->last_index = 30;
  s->last_term = (2ull << 32) | 3;
  s->state = SmSnap();
  s->config = Config();
  raft::ReconfigRecord rec;
  rec.kind = raft::ReconfigRecord::Kind::kMerge;
  rec.epoch = 4;
  rec.uid = 55;
  rec.members = {1, 2};
  rec.range = KeyRange("a", "k");
  rec.boundary_index = 8;
  s->history = {rec};
  s->unsettled_aborts[0x77] = Plan();
  return s;
}

inline kv::Command KvPut() {
  kv::Command c;
  c.op = kv::OpType::kCas;
  c.key = "key";
  c.value = "new";
  c.expected = "old";
  c.scan_hi = "z";
  c.scan_limit = 5;
  c.client_id = 42;
  c.seq = 7;
  return c;
}

/// One entry per log-payload alternative, in tag order.
inline std::vector<std::pair<std::string, raft::Payload>> Payloads() {
  raft::ConfInit init;
  init.members = {1, 2, 3};
  init.range = KeyRange("a", "q");
  init.uid = 5;
  return {
      {"noop", raft::NoOp{}},
      {"command", kv::EncodeCommand(KvPut())},
      {"conf_init", init},
      {"split_joint", raft::ConfSplitJoint{Split()}},
      {"split_new", raft::ConfSplitNew{Split()}},
      {"member", raft::ConfMember{Change()}},
      {"merge_tx", raft::ConfMergeTx{Plan(), true}},
      {"merge_outcome", raft::ConfMergeOutcome{Plan(), true}},
      {"set_range", raft::ConfSetRange{KeyRange("h", ""), SmSnap()}},
      {"abort_settled", raft::ConfAbortSettled{0x77}},
  };
}

inline raft::LogEntry Entry(Index index, uint64_t term, raft::Payload p) {
  raft::LogEntry e;
  e.index = index;
  e.term = term;
  e.payload = std::move(p);
  return e;
}

inline raft::EntrySpan Span(std::vector<raft::LogEntry> entries) {
  auto slab = std::make_shared<raft::EntrySlab>(
      static_cast<uint32_t>(entries.size()));
  for (auto& e : entries) slab->PushBack(std::move(e));
  raft::EntrySpan span;
  span.PushSegment(slab, 0, slab->size());
  return span;
}

inline raft::NamingRegister Naming(ClusterUid uid) {
  raft::NamingRegister r;
  r.uid = uid;
  r.epoch = 3;
  r.members = {1, 2};
  r.range = KeyRange("d", "");
  return r;
}

/// One populated value per wire message tag, in tag order.
inline std::vector<std::pair<std::string, raft::Message>> Messages() {
  std::vector<std::pair<std::string, raft::Message>> out;
  out.emplace_back("request_vote", raft::RequestVote{0x100000002, 3, 40, 41});
  out.emplace_back("vote_reply", raft::VoteReply{0x100000002, 4, true, true});
  {
    raft::AppendEntries v;
    v.et = 0x200000001;
    v.leader = 1;
    v.prev_idx = 9;
    v.prev_term = 0x200000000;
    v.entries = Span({Entry(10, 0x200000001, kv::EncodeCommand(KvPut())),
                      Entry(11, 0x200000001, raft::NoOp{})});
    v.commit = 8;
    out.emplace_back("append_entries", v);
  }
  out.emplace_back("append_reply",
                   raft::AppendReply{0x200000001, 2, true, 11, 6});
  out.emplace_back("install_snapshot",
                   raft::InstallSnapshot{0x200000001, 1, RaftSnap()});
  out.emplace_back("install_snapshot_reply",
                   raft::InstallSnapshotReply{0x200000001, 2, 30});
  out.emplace_back("commit_notify",
                   raft::CommitNotify{0x200000001, 1, 15, 0x200000001});
  out.emplace_back("pull_request", raft::PullRequest{5, 2, 12});
  {
    raft::PullReply v;
    v.from = 1;
    v.epoch = 3;
    v.entries = Span({Entry(12, 0x300000001, raft::ConfAbortSettled{4})});
    v.commit = 12;
    v.capped = true;
    v.snap = RaftSnap();
    out.emplace_back("pull_reply", v);
  }
  out.emplace_back("merge_prepare_req", raft::MergePrepareReq{6, Plan()});
  out.emplace_back("merge_prepare_reply",
                   raft::MergePrepareReply{4, 0x77, 1, true, true, 5, 3});
  out.emplace_back("merge_commit_req",
                   raft::MergeCommitReq{6, 0x77, true, Plan()});
  out.emplace_back("merge_commit_reply",
                   raft::MergeCommitReply{4, 0x77, 1, true, false, 5});
  out.emplace_back("merge_finalize", raft::MergeFinalize{6, 0x77});
  out.emplace_back("exchange_done", raft::ExchangeDone{4, 0x77});
  out.emplace_back("snap_pull_req", raft::SnapPullReq{4, 0x77, 1});
  out.emplace_back("snap_pull_reply",
                   raft::SnapPullReply{5, 0x77, 1, true, SmSnap()});
  out.emplace_back("read_index_probe",
                   raft::ReadIndexProbe{0x200000001, 1, 33});
  out.emplace_back("read_index_ack",
                   raft::ReadIndexAck{0x200000001, 2, 33, true});
  {
    std::vector<std::pair<std::string, raft::ClientBody>> bodies;
    bodies.emplace_back("command", kv::EncodeCommand(KvPut()));
    bodies.emplace_back("read",
                        raft::ReadRequest{kv::EncodeCommand(KvPut())});
    bodies.emplace_back("split",
                        raft::AdminSplit{{{1, 2}, {3, 4}}, {"g"}});
    bodies.emplace_back("merge", raft::AdminMerge{Plan()});
    bodies.emplace_back("member", raft::AdminMember{Change()});
    bodies.emplace_back("set_range",
                        raft::AdminSetRange{KeyRange("", "h"), SmSnap()});
    for (auto& [name, body] : bodies) {
      out.emplace_back("client_request." + name,
                       raft::ClientRequest{0x5150, 1000, std::move(body)});
    }
  }
  out.emplace_back("client_reply",
                   raft::ClientReply{0x5150, 2, WrongShard("moved"), "val",
                                     3, KeyRange("a", "m"), 4});
  out.emplace_back("range_snap_req",
                   raft::RangeSnapReq{900, KeyRange("k", "")});
  out.emplace_back("range_snap_reply",
                   raft::RangeSnapReply{2, true, false, 2, KeyRange("k", ""),
                                        SmSnap()});
  out.emplace_back("bootstrap_req",
                   raft::BootstrapReq{900, 17, Config(), SmSnap()});
  out.emplace_back("bootstrap_ack", raft::BootstrapAck{3, 17});
  out.emplace_back("naming_register", Naming(0xabc));
  out.emplace_back("naming_lookup_req", raft::NamingLookupReq{901});
  out.emplace_back("naming_lookup_reply",
                   raft::NamingLookupReply{{Naming(1), Naming(2)}});
  return out;
}

// --- WAL-family fixtures ----------------------------------------------------

/// Writes one WAL record (or blob) into `wal`: from literal values when
/// `img` is null, else from the values `img` recovered. Returns false when
/// `img` lacks the value.
using Drive = std::function<bool(storage::WalStorage& wal,
                                 const storage::BootImage* img)>;

inline std::map<std::string, Bytes> RunDrive(const Drive& drive,
                                             const storage::BootImage* img) {
  auto disk = std::make_shared<storage::SimDisk>();
  {
    storage::WalStorage wal(disk, nullptr);
    if (!drive(wal, img)) return {};
    wal.Sync();
  }
  std::map<std::string, Bytes> files;
  for (const auto& name : disk->List("")) files[name] = disk->ReadDurable(name);
  return files;
}

/// A fixture for `file` among the files `drive` writes: reencode boots a
/// SimDisk holding the other files as written and `file` as given, loads
/// it, and drives the recovered values into a fresh disk.
inline Fixture WalFixture(const std::string& name, const std::string& file,
                          const Drive& drive) {
  std::map<std::string, Bytes> files = RunDrive(drive, nullptr);
  Fixture f;
  f.name = name;
  f.bytes = files[file];
  f.reencode = [files, file, drive](const Bytes& in) -> std::optional<Bytes> {
    auto disk = std::make_shared<storage::SimDisk>();
    for (const auto& [n, b] : files) disk->WriteAtomic(n, n == file ? in : b);
    storage::WalStorage wal(disk, nullptr);
    auto img = wal.Load();
    if (!img.ok()) return std::nullopt;
    std::map<std::string, Bytes> again = RunDrive(drive, &*img);
    auto it = again.find(file);
    if (it == again.end()) return std::nullopt;
    return it->second;
  };
  return f;
}

inline std::vector<Fixture> WalFixtures() {
  std::vector<Fixture> out;
  out.push_back(WalFixture(
      "wal.hard_state", "wal",
      [](storage::WalStorage& w, const storage::BootImage* img) {
        w.PersistHardState(img ? img->hard
                               : storage::HardState{0x300000002, 2, 9});
        return true;
      }));
  for (auto& [pname, payload] : Payloads()) {
    raft::LogEntry e = Entry(1, 0x100000004, payload);
    out.push_back(WalFixture(
        "wal.append." + pname, "wal",
        [e](storage::WalStorage& w, const storage::BootImage* img) {
          if (img != nullptr && img->entries.size() != 1) return false;
          w.OnLogAppend(img ? raft::EntryRef(img->entries[0])
                            : raft::EntryRef(e));
          return true;
        }));
  }
  out.push_back(WalFixture(
      "wal.truncate_from", "wal",
      [](storage::WalStorage& w, const storage::BootImage*) {
        w.OnLogTruncateFrom(7);
        return true;
      }));
  out.push_back(WalFixture(
      "wal.reset", "wal",
      [](storage::WalStorage& w, const storage::BootImage* img) {
        w.OnLogReset(img ? img->base_index : 40,
                     img ? img->base_term : 0x200000003);
        return true;
      }));
  out.push_back(WalFixture(
      "wal.compact_to", "wal",
      [](storage::WalStorage& w, const storage::BootImage* img) {
        w.OnLogCompactTo(img ? img->base_index : 12,
                         img ? img->base_term : 0x200000002);
        return true;
      }));
  const Drive install = [](storage::WalStorage& w,
                           const storage::BootImage* img) {
    if (img != nullptr && img->snap == nullptr) return false;
    w.InstallSnapshot(img ? img->snap : RaftSnap());
    return true;
  };
  out.push_back(WalFixture("wal.snap_installed", "wal", install));
  out.push_back(WalFixture("blob.snapshot", "snap-1", install));
  out.push_back(WalFixture(
      "blob.seal", "seal-119-1",
      [](storage::WalStorage& w, const storage::BootImage* img) {
        sm::SnapshotPtr snap = SmSnap();
        if (img != nullptr) {
          auto it = img->sealed.find({0x77, 1});
          if (it == img->sealed.end()) return false;
          snap = it->second;
        }
        w.PersistSealed(0x77, 1, snap);
        return true;
      }));
  out.push_back(WalFixture(
      "blob.exmeta", "exmeta",
      [](storage::WalStorage& w, const storage::BootImage* img) {
        storage::ExchangeMeta meta;
        meta.pending_plan = Plan();
        storage::ExchangeGcImage gc;
        gc.tx = 0x76;
        gc.resumed = {1, 2};
        gc.targets = {4};
        gc.done = {1};
        gc.self_done = true;
        meta.gc = {gc};
        w.PersistExchangeMeta(img ? img->exchange : meta);
        return true;
      }));
  return out;
}

// --- state-machine bodies ---------------------------------------------------

inline kv::Snapshot KvSnap() {
  kv::Snapshot s;
  s.range = KeyRange("a", "t");
  s.data = {{"apple", "1"}, {"pear", "22"}};
  s.sessions[42] = kv::Session{7, {Conflict("cas"), "old"}};
  s.sessions[43] = kv::Session{2, {OkStatus(), ""}};
  return s;
}

inline sm::QueueRequest QueueReq() {
  sm::QueueRequest r;
  r.op = sm::QueueOp::kDequeue;
  r.topic = "orders";
  r.payload = "evt";
  r.client_id = 8;
  r.seq = 3;
  return r;
}

inline std::vector<Fixture> MachineFixtures() {
  std::vector<Fixture> out;
  out.push_back(
      {"kv.command", kv::EncodeCommand(KvPut()).body,
       [](const Bytes& in) -> std::optional<Bytes> {
         auto cmd = kv::DecodeCommand(sm::Command{"key", in});
         if (!cmd.ok()) return std::nullopt;
         return kv::EncodeCommand(*cmd).body;
       }});
  {
    std::string batch = kv::EncodeScanBatch({{"a", "1"}, {"bb", ""}});
    out.push_back(
        {"kv.scan_batch", Bytes(batch.begin(), batch.end()),
         [](const Bytes& in) -> std::optional<Bytes> {
           auto entries =
               kv::DecodeScanBatch(std::string(in.begin(), in.end()));
           if (!entries.ok()) return std::nullopt;
           std::string again = kv::EncodeScanBatch(*entries);
           return Bytes(again.begin(), again.end());
         }});
  }
  out.push_back(
      {"kv.snapshot", KvSnap().Serialize(),
       [](const Bytes& in) -> std::optional<Bytes> {
         sm::Snapshot snap;
         snap.range = KeyRange("a", "t");
         snap.data = in;
         kv::KvMachine m(KeyRange::Full());
         if (!m.Restore(snap).ok()) return std::nullopt;
         return m.TakeSnapshot()->data;
       }});
  out.push_back(
      {"queue.request", sm::EncodeQueueRequest(QueueReq()).body,
       [](const Bytes& in) -> std::optional<Bytes> {
         auto req = sm::DecodeQueueRequest(sm::Command{"orders", in});
         if (!req.ok()) return std::nullopt;
         return sm::EncodeQueueRequest(*req).body;
       }});
  {
    sm::QueueMachine q(KeyRange::Full());
    auto enq = [&q](const std::string& topic, const std::string& payload,
                    uint64_t seq) {
      sm::QueueRequest r;
      r.topic = topic;
      r.payload = payload;
      r.client_id = 8;
      r.seq = seq;
      (void)q.Apply(sm::EncodeQueueRequest(r));
    };
    enq("orders", "e1", 1);
    enq("orders", "e2", 2);
    enq("users", "u1", 3);
    sm::QueueRequest deq = QueueReq();
    deq.topic = "none";
    deq.seq = 4;
    (void)q.Apply(sm::EncodeQueueRequest(deq));  // a NOT_FOUND session
    out.push_back(
        {"queue.snapshot", q.TakeSnapshot()->data,
         [](const Bytes& in) -> std::optional<Bytes> {
           sm::Snapshot snap;
           snap.data = in;
           sm::QueueMachine m(KeyRange::Full());
           if (!m.Restore(snap).ok()) return std::nullopt;
           return m.TakeSnapshot()->data;
         }});
  }
  return out;
}

inline std::vector<Fixture> MessageFixtures() {
  std::vector<Fixture> out;
  for (auto& [name, msg] : Messages()) {
    Encoder enc;
    net::EncodeMessage(enc, msg);
    out.push_back({"msg." + name, enc.buffer(),
                   [](const Bytes& in) -> std::optional<Bytes> {
                     Decoder dec(in);
                     auto m = net::DecodeMessage(dec);
                     if (!m.ok() || !dec.AtEnd()) return std::nullopt;
                     Encoder again;
                     net::EncodeMessage(again, **m);
                     return again.buffer();
                   }});
  }
  return out;
}

inline std::vector<Fixture> AllFixtures() {
  std::vector<Fixture> out = MessageFixtures();
  for (auto& f : WalFixtures()) out.push_back(std::move(f));
  for (auto& f : MachineFixtures()) out.push_back(std::move(f));
  return out;
}

}  // namespace recraft::fixtures
