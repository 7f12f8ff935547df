// The replicated log: a contiguous run of entries above a compacted base
// (the snapshot position). Provides the primitives the node builds Raft's
// matching/truncation rules on, plus Reset() for the merge protocol's
// fresh-log resumption.
//
// Persistence: the in-memory list is a *cached view* over an optional
// LogSink (the pluggable storage backend). Every structural mutation —
// append, truncate, compact, reset — is forwarded to the attached sink, so
// call sites throughout the node (replication, pull recovery, merge
// resumption, proposals) persist without knowing storage exists. Reads
// always come from the cache; recovery rebuilds the cache from the sink's
// durable contents before attaching it.
//
// Entries live in refcounted append-only slabs (raft/entry_slab.h): Slice
// returns a zero-copy EntrySpan over them (one AppendEntries batch costs a
// couple of segment descriptors per peer, not an entry deep-copy), and
// OnLogAppend hands the sink a shared EntryRef so the storage mirrors point
// at the same slab slots the log cache does.
#pragma once

#include <cassert>

#include "raft/entry.h"
#include "raft/entry_slab.h"

namespace recraft::raft {

/// Receives every structural log mutation, in order. Implemented by the
/// storage backends; attach with RaftLog::Attach *after* the cache has been
/// rebuilt from durable state (boot must not re-persist what it replays).
class LogSink {
 public:
  virtual ~LogSink() = default;
  /// `e` shares the log's slab slot — sinks that mirror the log keep the
  /// reference instead of copying the entry. (A bare LogEntry converts
  /// implicitly for cold-path callers.)
  virtual void OnLogAppend(const EntryRef& e) = 0;
  virtual void OnLogTruncateFrom(Index i) = 0;
  virtual void OnLogCompactTo(Index i, uint64_t term) = 0;
  virtual void OnLogReset(Index base, uint64_t term) = 0;
};

class RaftLog {
 public:
  /// Attach (or detach, with nullptr) the persistence sink. Mutations from
  /// this point on are forwarded after updating the cache.
  void Attach(LogSink* sink) { sink_ = sink; }
  /// Base (snapshot) position: entries exist for indices in
  /// (base_index, last_index].
  Index base_index() const { return base_index_; }
  uint64_t base_term() const { return base_term_; }
  Index first_index() const { return base_index_ + 1; }
  Index last_index() const { return base_index_ + entries_.size(); }
  uint64_t last_term() const {
    return entries_.empty() ? base_term_ : entries_.back().term;
  }
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  bool HasEntry(Index i) const {
    return i > base_index_ && i <= last_index();
  }

  /// Term at index i; valid for base_index() too. Returns 0 when the index
  /// is compacted away or beyond the log.
  uint64_t TermAt(Index i) const {
    if (i == base_index_) return base_term_;
    if (!HasEntry(i)) return 0;
    return entries_.At(i - base_index_ - 1).term;
  }

  const LogEntry& At(Index i) const {
    assert(HasEntry(i));
    return entries_.At(i - base_index_ - 1);
  }

  /// True when (i, term) matches this log — the AppendEntries consistency
  /// check. Index 0 with term 0 always matches (empty-log case).
  bool Matches(Index i, uint64_t term) const {
    if (i == 0) return term == 0;
    if (i < base_index_) return true;  // compacted: implied committed, matches
    if (i == base_index_) return term == base_term_;
    if (!HasEntry(i)) return false;
    return TermAt(i) == term;
  }

  /// Append one entry; index must be last_index()+1.
  void Append(LogEntry e) {
    assert(e.index == last_index() + 1);
    EntryRef ref = entries_.PushOwned(std::move(e));
    if (sink_ != nullptr) sink_->OnLogAppend(ref);
  }

  /// Remove all entries with index >= i. i must be > base_index().
  void TruncateFrom(Index i) {
    assert(i > base_index_);
    if (i > last_index()) return;
    while (last_index() >= i) entries_.PopBack();
    if (sink_ != nullptr) sink_->OnLogTruncateFrom(i);
  }

  /// Drop entries up to and including i (log compaction after a snapshot).
  void CompactTo(Index i, uint64_t term) {
    assert(i >= base_index_);
    if (i == base_index_) return;
    size_t drop = std::min(static_cast<size_t>(i - base_index_), entries_.size());
    for (size_t k = 0; k < drop; ++k) entries_.PopFront();
    base_index_ = i;
    base_term_ = term;
    if (sink_ != nullptr) sink_->OnLogCompactTo(i, term);
  }

  /// Discard everything and restart at the given base. Used when a merged
  /// cluster resumes (the log "begins with the C_new entry") and when a
  /// snapshot is installed.
  void Reset(Index base, uint64_t term) {
    entries_.Clear();
    base_index_ = base;
    base_term_ = term;
    if (sink_ != nullptr) sink_->OnLogReset(base, term);
  }

  /// Rebuild the cache from durable state at boot: appends without sink
  /// forwarding (the entry is already durable — echoing it back would
  /// double-write the WAL).
  void BootAppend(LogEntry e) {
    assert(sink_ == nullptr && "attach the sink after the cache is rebuilt");
    assert(e.index == last_index() + 1);
    entries_.PushOwned(std::move(e));
  }
  void BootSetBase(Index base, uint64_t term) {
    assert(entries_.empty());
    base_index_ = base;
    base_term_ = term;
  }

  /// View of entries in [lo, hi] (inclusive, clamped to available range).
  /// Zero-copy: the span shares the log's slabs, and stays valid after
  /// truncation (slab slots are append-only, never overwritten).
  EntrySpan Slice(Index lo, Index hi) const {
    lo = std::max(lo, first_index());
    hi = std::min(hi, last_index());
    if (lo > hi) return {};
    return entries_.Span(lo - base_index_ - 1, hi - lo + 1);
  }

 private:
  EntryList entries_;
  Index base_index_ = 0;
  uint64_t base_term_ = 0;
  LogSink* sink_ = nullptr;
};

}  // namespace recraft::raft
