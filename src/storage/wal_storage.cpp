#include "storage/wal_storage.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <variant>

#include "common/logging.h"
#include "storage/codec.h"
#include "storage/sim_disk.h"

namespace recraft::storage {

namespace {

constexpr char kWalFile[] = "wal";
constexpr char kExMetaFile[] = "exmeta";
constexpr size_t kRecordHeaderBytes = 8;  // u32 len + u32 crc

// WAL record bodies besides HardState and an appended raft::LogEntry.
struct TruncateFrom {
  Index index = 0;
};
struct Reset {
  Index base = 0;
  uint64_t term = 0;
};
struct CompactTo {
  Index index = 0;
  uint64_t term = 0;
};
struct SnapInstalled {
  uint32_t gen = 0;
  Index index = 0;
  uint64_t term = 0;
};

template <class Io>
void Walk(Io& io, TruncateFrom& r) {
  io(r.index);
}
template <class Io>
void Walk(Io& io, Reset& r) {
  io(r.base, r.term);
}
template <class Io>
void Walk(Io& io, CompactTo& r) {
  io(r.index, r.term);
}
template <class Io>
void Walk(Io& io, SnapInstalled& r) {
  io(r.gen, r.index, r.term);
}

using WalRecord = std::variant<HardState, raft::LogEntry, TruncateFrom,
                               Reset, CompactTo, SnapInstalled>;

// Record types: part of the durable format; append-only.
using WalRecordTags =
    codec::TagTable<WalRecord, codec::Tag<1, HardState>,
                    codec::Tag<2, raft::LogEntry>,
                    codec::Tag<3, TruncateFrom>, codec::Tag<4, Reset>,
                    codec::Tag<5, CompactTo>, codec::Tag<6, SnapInstalled>>;

template <class... F>
struct Overloaded : F... {
  using F::operator()...;
};
template <class... F>
Overloaded(F...) -> Overloaded<F...>;

/// One WAL record: [u32 len][u32 crc32(payload)][payload = type + fields].
template <class R>
std::vector<uint8_t> FrameRecord(const R& rec) {
  const auto body = codec::Tagged<WalRecordTags>(rec);
  const auto len = static_cast<uint32_t>(codec::Size(body));
  Encoder enc;
  enc.Reserve(kRecordHeaderBytes + len);
  codec::Write(enc, len, uint32_t{0}, body);
  std::vector<uint8_t> frame = enc.Take();
  const uint32_t crc = Crc32(frame.data() + kRecordHeaderBytes, len);
  std::memcpy(frame.data() + 4, &crc, sizeof(crc));
  return frame;
}

// What a log record does to the durable model, live and on replay.
template <class Model>
void Apply(Model& m, const TruncateFrom& r) {
  while (!m.entries.empty() && m.entries.back().index >= r.index) {
    m.entries.PopBack();
  }
}
template <class Model>
void Apply(Model& m, const CompactTo& r) {
  while (!m.entries.empty() && m.entries.front().index <= r.index) {
    m.entries.PopFront();
  }
  m.base_index = r.index;
  m.base_term = r.term;
}
template <class Model>
void Apply(Model& m, const Reset& r) {
  m.entries.Clear();
  m.base_index = r.base;
  m.base_term = r.term;
}

}  // namespace

template <class Io>
void Walk(Io& io, HardState& hs) {
  io(hs.term, hs.voted_for, hs.commit);
}

template <class Io>
void Walk(Io& io, ExchangeGcImage& gc) {
  io(gc.tx, gc.resumed, gc.targets, gc.done, gc.self_done);
}

template <class Io>
void Walk(Io& io, ExchangeMeta& meta) {
  io(meta.pending_plan, meta.gc);
}

WalStorage::WalStorage(std::shared_ptr<Disk> disk, net::Clock* clock,
                       Options opts)
    : disk_(std::move(disk)), clock_(clock), opts_(opts) {
  assert(disk_ != nullptr);
}

WalStorage::~WalStorage() {
  if (clock_ != nullptr && flush_event_ != net::kNoTimer) {
    clock_->Cancel(flush_event_);
  }
}

std::string WalStorage::SnapFile(uint32_t gen) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snap-%u", gen);
  return buf;
}

std::string WalStorage::SealFile(TxId tx, int source) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "seal-%llu-%d",
                static_cast<unsigned long long>(tx), source);
  return buf;
}

size_t WalStorage::wal_file_bytes() const { return wal_len_; }

void WalStorage::AppendFrame(const std::vector<uint8_t>& frame,
                             bool force_sync) {
  pending_record_offsets_.push_back(wal_len_);
  wal_len_ += frame.size();
  disk_->Append(kWalFile, frame);
  ++stats_.records;
  ++pending_records_;
  if (force_sync || opts_.flush_interval == 0) {
    FlushNow(/*from_timer=*/false);
  } else if (clock_ != nullptr) {
    ArmFlush();
  }
  // clock_ == nullptr with a flush interval: manual mode — the owner
  // drives durability with Sync() (unit tests, crash injection setups).
}

void WalStorage::ArmFlush() {
  if (flush_event_ != net::kNoTimer) return;
  flush_event_ =
      clock_->CallAfter(opts_.flush_interval, [this]() { OnFlushTimer(); });
}

Duration WalStorage::StallPollInterval() const {
  return opts_.flush_interval > 0 ? opts_.flush_interval : 100;
}

void WalStorage::OnFlushTimer() {
  flush_event_ = net::kNoTimer;
  if (disk_->fsync_stalled()) {
    // The platter is unreachable: keep batching pending records and poll
    // until the stall heals. DurableIndex freezes, so follower acks and the
    // leader's own commit vote wait — delayed, never unsafe.
    flush_event_ =
        clock_->CallAfter(StallPollInterval(), [this]() { OnFlushTimer(); });
    return;
  }
  if (disk_->extra_fsync_latency() > 0 && !flush_deferred_) {
    // A latency spike defers this group commit once by the injected amount;
    // the next timer firing flushes whatever accumulated meanwhile.
    flush_deferred_ = true;
    flush_event_ = clock_->CallAfter(disk_->extra_fsync_latency(),
                                     [this]() { OnFlushTimer(); });
    return;
  }
  flush_deferred_ = false;
  FlushNow(/*from_timer=*/true);
}

void WalStorage::FlushNow(bool from_timer) {
  flush_deferred_ = false;
  if (pending_records_ > 0) {
    disk_->Flush(kWalFile);
    if (recorder_ != nullptr) {
      recorder_->Emit(recorder_node_, obs::Name::kWalFlush, obs::TraceCtx{},
                      pending_records_, from_timer ? 0 : 1);
    }
    if (from_timer) {
      ++stats_.batch_flushes;
    } else {
      ++stats_.sync_flushes;
    }
    pending_records_ = 0;
    pending_record_offsets_.clear();
    durable_index_ = model_.last_index();
  }
  // The callback is only safe from the top of the event loop: timer fires
  // and explicit Sync() qualify, mid-mutation synchronous flushes do not.
  if (from_timer && durable_cb_) durable_cb_();
}

void WalStorage::Sync() {
  FlushNow(/*from_timer=*/false);
  if (durable_cb_) durable_cb_();
}

Index WalStorage::DurableIndex() const {
  return std::min(durable_index_, model_.last_index());
}

// --- LogSink ---------------------------------------------------------------

void WalStorage::OnLogAppend(const raft::EntryRef& e) {
  assert(e->index == model_.last_index() + 1);
  model_.entries.PushShared(e);  // mirror by slab reference, no deep copy
  ++stats_.entry_records;
  AppendFrame(FrameRecord(*e), /*force_sync=*/false);
}

void WalStorage::OnLogTruncateFrom(Index i) {
  const TruncateFrom rec{i};
  Apply(model_, rec);
  durable_index_ = std::min(durable_index_, model_.last_index());
  AppendFrame(FrameRecord(rec), /*force_sync=*/false);
}

void WalStorage::OnLogCompactTo(Index i, uint64_t term) {
  const CompactTo rec{i, term};
  Apply(model_, rec);
  // Entries at or below the compaction point are covered by the snapshot
  // blob (installed synchronously before the log compacts).
  durable_index_ = std::max(durable_index_, i);
  AppendFrame(FrameRecord(rec), /*force_sync=*/false);
  MaybeRewriteWal();
}

void WalStorage::OnLogReset(Index base, uint64_t term) {
  const Reset rec{base, term};
  Apply(model_, rec);
  durable_index_ = base;
  AppendFrame(FrameRecord(rec), /*force_sync=*/false);
  MaybeRewriteWal();
}

// --- non-log state ---------------------------------------------------------

void WalStorage::PersistHardState(const HardState& hs) {
  // A node must never forget a granted vote or an adopted term; pure
  // commit-index advances may ride the next group commit.
  bool sync = hs.term != model_.hard.term ||
              hs.voted_for != model_.hard.voted_for;
  model_.hard = hs;
  AppendFrame(FrameRecord(hs), sync);
}

void WalStorage::InstallSnapshot(const raft::RaftSnapshotPtr& snap) {
  assert(snap != nullptr);
  uint32_t gen = model_.snap_gen + 1;
  // Durable before the marker record.
  disk_->WriteAtomic(SnapFile(gen), codec::Encode(*snap));
  ++stats_.snapshots_written;
  constexpr uint32_t kSnapshotsToKeep = 2;  // for divergence recovery
  if (gen > kSnapshotsToKeep) {
    disk_->Delete(SnapFile(gen - kSnapshotsToKeep));
  }
  model_.snap_gen = gen;
  model_.snap_index = snap->last_index;
  model_.snap_term = snap->last_term;
  last_snap_record_off_ = wal_len_;
  // Deliberately batched: the window until the next flush is the
  // "crash between snapshot install and log truncation" crash point.
  AppendFrame(FrameRecord(SnapInstalled{gen, snap->last_index,
                                        snap->last_term}),
              /*force_sync=*/false);
}

void WalStorage::PersistSealed(TxId tx, int source,
                               const sm::SnapshotPtr& snap) {
  assert(snap != nullptr);
  disk_->WriteAtomic(SealFile(tx, source), codec::Encode(*snap));
}

void WalStorage::PruneSealed(TxId tx) {
  char prefix[48];
  std::snprintf(prefix, sizeof(prefix), "seal-%llu-",
                static_cast<unsigned long long>(tx));
  for (const auto& name : disk_->List(prefix)) disk_->Delete(name);
}

void WalStorage::PersistExchangeMeta(const ExchangeMeta& meta) {
  disk_->WriteAtomic(kExMetaFile, codec::Encode(meta));
}

void WalStorage::WipeAll() {
  for (const auto& name : disk_->List("")) disk_->Delete(name);
  model_ = Model{};
  durable_index_ = 0;
  pending_records_ = 0;
  pending_record_offsets_.clear();
  wal_len_ = 0;
  last_snap_record_off_ = 0;
}

// --- checkpoint rewrite ----------------------------------------------------

std::vector<uint8_t> WalStorage::EncodeCheckpoint() const {
  // A compact, replayable equivalent of the live model: snapshot marker,
  // base reset, every live entry, final hard state.
  std::vector<uint8_t> out;
  auto put = [&out](const auto& rec) {
    std::vector<uint8_t> frame = FrameRecord(rec);
    out.insert(out.end(), frame.begin(), frame.end());
  };
  if (model_.snap_gen > 0) {
    put(SnapInstalled{model_.snap_gen, model_.snap_index, model_.snap_term});
  }
  put(Reset{model_.base_index, model_.base_term});
  for (size_t i = 0; i < model_.entries.size(); ++i) {
    put(model_.entries.At(i));
  }
  put(model_.hard);
  return out;
}

void WalStorage::MaybeRewriteWal() {
  if (wal_len_ <= opts_.rewrite_slack_bytes) return;
  std::vector<uint8_t> checkpoint = EncodeCheckpoint();
  if (checkpoint.size() * 2 >= wal_len_) return;  // not enough dead weight
  wal_len_ = checkpoint.size();
  last_snap_record_off_ = 0;  // the snapshot marker leads the checkpoint
  pending_records_ = 0;
  pending_record_offsets_.clear();
  disk_->WriteAtomic(kWalFile, std::move(checkpoint));
  durable_index_ = model_.last_index();  // atomic replace is durable
  ++stats_.wal_rewrites;
}

// --- crash injection -------------------------------------------------------

void WalStorage::Crash(const CrashSpec& spec) {
  if (clock_ != nullptr && flush_event_ != net::kNoTimer) {
    clock_->Cancel(flush_event_);
    flush_event_ = net::kNoTimer;
  }
  // Crash *injection* is a simulated-disk concept; a FileDisk-backed node
  // crashes by dying (SIGKILL) and the kernel decides what survived.
  auto* sim = dynamic_cast<SimDisk*>(disk_.get());
  if (sim == nullptr) return;
  const size_t pending_bytes = disk_->PendingSize(kWalFile);
  const size_t pending_start = wal_len_ - pending_bytes;
  switch (spec.point) {
    case CrashPoint::kLosePending:
      sim->CrashAll();
      break;
    case CrashPoint::kTornTail: {
      if (pending_record_offsets_.empty()) {
        sim->CrashAll();
        break;
      }
      // Every whole record before the last, plus a torn half of the last.
      size_t last_off = pending_record_offsets_.back();
      size_t torn = std::max<size_t>(1, (wal_len_ - last_off) / 2);
      sim->CrashKeepingPrefix(kWalFile, last_off - pending_start + torn);
      break;
    }
    case CrashPoint::kPartialBatch: {
      if (pending_record_offsets_.empty()) {
        sim->CrashAll();
        break;
      }
      // A whole-record prefix of the batch survives; the tail records of
      // the batch are lost cleanly.
      size_t keep_records = pending_record_offsets_.size() / 2;
      size_t cut = keep_records < pending_record_offsets_.size()
                       ? pending_record_offsets_[keep_records]
                       : wal_len_;
      sim->CrashKeepingPrefix(kWalFile, cut - pending_start);
      break;
    }
    case CrashPoint::kSnapLogDivergence:
      // Only meaningful while the snapshot marker is still in flight —
      // that IS the "between snapshot install and log truncation" window.
      // Once the marker was fsynced it is acknowledged state and no crash
      // may take it back; degrade to a clean pending loss then.
      if (model_.snap_gen > 0 && last_snap_record_off_ >= pending_start) {
        // The blob survived (it was written atomically first); the marker
        // and everything queued behind it are lost.
        sim->CrashKeepingPrefix(kWalFile,
                                  last_snap_record_off_ - pending_start);
      } else {
        sim->CrashAll();
      }
      break;
  }
}

// --- recovery --------------------------------------------------------------

Status WalStorage::ReplayWal(const std::vector<uint8_t>& bytes,
                             Model* model) {
  size_t pos = 0;
  const size_t n = bytes.size();
  while (pos + kRecordHeaderBytes <= n) {
    uint32_t len;
    uint32_t crc;
    std::memcpy(&len, bytes.data() + pos, 4);
    std::memcpy(&crc, bytes.data() + pos + 4, 4);
    if (pos + kRecordHeaderBytes + len > n) break;  // truncated tail record
    // Every real record carries at least its type byte; an empty one is a
    // zero-filled tail (the CRC of nothing is trivially 0), not a record.
    if (len == 0) break;
    const uint8_t* body = bytes.data() + pos + kRecordHeaderBytes;
    if (Crc32(body, len) != crc) break;  // torn or rotted record
    WalRecord rec;
    const bool decoded =
        codec::ReadAll(Decoder(body, len), codec::Tagged<WalRecordTags>(rec))
            .ok();
    const bool ok = decoded && std::visit(
        Overloaded{
            [model](const HardState& hs) {
              model->hard = hs;
              return true;
            },
            [this, model](raft::LogEntry& e) {
              // Defensive: an append below the current end implies a lost
              // truncate record, which suffix-loss cannot produce — but
              // recover by honoring the later write anyway.
              Apply(*model, TruncateFrom{e.index});
              // A gap is unreachable via suffix loss: treat it as corrupt.
              if (e.index != model->last_index() + 1) return false;
              model->entries.PushOwned(std::move(e));
              ++stats_.replayed_entries;
              return true;
            },
            [this, model, pos](const SnapInstalled& r) {
              model->snap_gen = r.gen;
              model->snap_index = r.index;
              model->snap_term = r.term;
              if (r.index > model->base_index) {
                Apply(*model, CompactTo{r.index, r.term});
              }
              last_snap_record_off_ = pos;
              return true;
            },
            [model](const auto& log_record) {
              Apply(*model, log_record);
              return true;
            }},
        rec);
    if (!ok) {
      // The record is intact as written, so it is not a torn write: it is
      // another format (an older build's) or a bug. Fail the load and keep
      // the file; cutting here would delete acknowledged records after it.
      return Internal("wal: record at offset " + std::to_string(pos) +
                      " passes its CRC but cannot be replayed");
    }
    ++stats_.replayed_records;
    pos += kRecordHeaderBytes + len;
  }
  if (pos < n) {
    stats_.tore_tail = true;
    stats_.dropped_tail_bytes = n - pos;
  }
  return OkStatus();
}

Result<BootImage> WalStorage::Load() {
  const std::vector<uint8_t>& bytes = disk_->ReadDurable(kWalFile);
  // Recovery stats describe this load only: a second Load() (recraftd
  // probes once before the node boots) must not re-cut the previous
  // load's tail length off a file that was already truncated.
  stats_.replayed_records = 0;
  stats_.replayed_entries = 0;
  stats_.dropped_tail_bytes = 0;
  stats_.tore_tail = false;
  stats_.snapshot_fallback = false;
  Model m;
  Status replayed = ReplayWal(bytes, &m);
  if (!replayed.ok()) return replayed;
  const size_t replayable = bytes.size() - stats_.dropped_tail_bytes;
  if (stats_.tore_tail) {
    // Cut the torn/garbage tail off the durable file NOW: records appended
    // after this recovery must land at the end of the *replayable* prefix,
    // or a second crash would silently drop everything written since (the
    // next replay would stop at the old torn record again).
    disk_->TruncateDurable(kWalFile, replayable);
  }

  BootImage img;
  img.present = !bytes.empty() || !disk_->List("").empty();

  // Resolve the snapshot blob. If the newest generation is unreadable,
  // fall back generation by generation (an injected divergence can leave a
  // blob the WAL never references — that one is simply ignored, while a
  // missing/corrupt referenced blob falls back to its predecessor plus the
  // longer log retained in the WAL). Only generations present on disk are
  // tried, newest first: the WAL's generation number bounds the search, it
  // is not a loop count. A blob is usable only if it decodes whole.
  std::vector<uint32_t> gens;
  for (const auto& name : disk_->List("snap-")) {
    gens.push_back(
        static_cast<uint32_t>(std::strtoul(name.c_str() + 5, nullptr, 10)));
  }
  std::sort(gens.rbegin(), gens.rend());
  uint32_t gen = 0;
  raft::RaftSnapshotPtr snap;
  auto newest_readable = [&](uint32_t at_most) {
    for (uint32_t g : gens) {
      if (g == 0 || g > at_most) continue;
      auto blob = std::make_shared<raft::RaftSnapshot>();
      if (codec::ReadAll(Decoder(disk_->ReadDurable(SnapFile(g))), *blob)
              .ok()) {
        gen = g;
        snap = std::move(blob);
        return;
      }
    }
  };
  if (m.snap_gen > 0) {
    newest_readable(m.snap_gen);
    stats_.snapshot_fallback = gen != m.snap_gen;
    if (snap == nullptr) {
      // The WAL references a snapshot but no blob generation is readable:
      // the log below the base is unrecoverable.
      return Internal("wal: no readable snapshot blob for gen " +
                      std::to_string(m.snap_gen));
    }
  } else if (bytes.empty()) {
    // Empty (or fully torn) WAL: fall back to the newest readable blob so
    // a divergence injection right after a checkpoint cannot cause total
    // amnesia.
    newest_readable(UINT32_MAX);
    if (snap != nullptr) {
      m.snap_gen = gen;
      m.snap_index = snap->last_index;
      m.snap_term = snap->last_term;
      m.base_index = snap->last_index;
      m.base_term = snap->last_term;
      stats_.snapshot_fallback = true;
    }
  }
  if (snap != nullptr && snap->last_index < m.base_index) {
    return Internal("wal: snapshot older than log base");
  }

  img.hard = m.hard;
  img.snap = snap;
  img.base_index = m.base_index;
  img.base_term = m.base_term;
  // Zero-copy: the image's span holds refs into the replayed model's slabs,
  // which survive the move into model_ below (shared ownership).
  img.entries = m.entries.Span(0, m.entries.size());

  // Sealed merge-exchange snapshots.
  for (const auto& name : disk_->List("seal-")) {
    unsigned long long tx = 0;
    int src = -1;
    if (std::sscanf(name.c_str(), "seal-%llu-%d", &tx, &src) != 2) continue;
    auto seal = std::make_shared<sm::Snapshot>();
    // Corrupt or foreign-format seal: peers still hold copies.
    if (!codec::ReadAll(Decoder(disk_->ReadDurable(name)), *seal).ok()) {
      continue;
    }
    img.sealed[{static_cast<TxId>(tx), src}] = std::move(seal);
  }

  // Exchange runtime metadata. The file has no checksum, so a damaged blob
  // is salvaged field by field in Walk(ExchangeMeta)'s order: a readable
  // pending plan is kept even when the gc list after it is not (recovery
  // resumes the snapshot exchange from the plan), and the gc list keeps
  // its records before the first unreadable one.
  if (disk_->Exists(kExMetaFile)) {
    const auto& blob = disk_->ReadDurable(kExMetaFile);
    Decoder dec(blob);
    std::optional<raft::MergePlan> plan;
    uint32_t ngc = 0;
    if (codec::Read(dec, plan).ok()) {
      img.exchange.pending_plan = std::move(plan);
      if (!codec::Read(dec, ngc).ok()) ngc = 0;
    }
    for (uint32_t i = 0; i < ngc; ++i) {
      ExchangeGcImage gc;
      if (!codec::Read(dec, gc).ok()) break;
      img.exchange.gc.push_back(std::move(gc));
    }
  }

  // Adopt the recovered state as the live model so subsequent mutations
  // and checkpoints continue from it. New records start at the end of the
  // replayable prefix (the torn tail, if any, was truncated above).
  model_ = std::move(m);
  durable_index_ = model_.last_index();
  wal_len_ = replayable;
  pending_records_ = 0;
  pending_record_offsets_.clear();
  return img;
}

}  // namespace recraft::storage
