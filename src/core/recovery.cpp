// Pull-based recovery across epochs (§III-B), snapshot install, and the
// naming-service fallback for long-term failures (§V).
//
// Pull rules: only *committed* entries are served, only by nodes that fully
// completed their reconfiguration (stable mode, no pending exchange), and a
// reply never crosses the responder's epoch boundary — so a node can never
// receive a sibling subcluster's post-split entries. When the responder has
// compacted (or reset, after a merge) past the requested position it falls
// back to a full snapshot.
#include "common/logging.h"
#include "core/node.h"

namespace recraft::core {

namespace {
constexpr int kMaxPullAttempts = 8;
constexpr int kPullRetryTicks = 15;
}

void Node::StartPull(NodeId target) {
  if (!opts_.enable_pull) return;     // ablation: no self-rescue
  if (exchange_.has_value()) return;  // merge exchange has its own path
  if (pull_target_ == target && pull_countdown_ > 0) return;
  pull_target_ = target;
  pull_countdown_ = kPullRetryTicks;
  pull_attempts_ = 0;
  // A candidate that is told to pull abandons its campaign (§III-B,
  // EnterElection returns FAILURE after pullLog).
  if (role_ == Role::kCandidate) {
    role_ = Role::kFollower;
    votes_.clear();
  }
  counters_.Add(cid_.recovery_pull_started);
  raft::PullRequest req;
  req.from = id_;
  req.epoch = current_et().epoch();
  req.next_idx = commit_ + 1;
  Send(target, std::move(req));
}

void Node::PullTick() {
  if (--pull_countdown_ > 0) return;
  if (++pull_attempts_ > kMaxPullAttempts) {
    // Give up on this source; normal election timeouts (and the naming
    // fallback) take over.
    pull_target_ = kNoNode;
    pull_attempts_ = 0;
    return;
  }
  // Rotate through known peers: the original target may itself be outdated
  // or unreachable ("the puller can contact different nodes", §III-B).
  const auto& members = config_.Current().members;
  if (!members.empty()) {
    auto it = std::find(members.begin(), members.end(), pull_target_);
    if (it != members.end() && members.size() > 1) {
      size_t next = (static_cast<size_t>(it - members.begin()) + 1) %
                    members.size();
      if (members[next] != id_) pull_target_ = members[next];
    }
  }
  pull_countdown_ = kPullRetryTicks;
  raft::PullRequest req;
  req.from = id_;
  req.epoch = current_et().epoch();
  req.next_idx = commit_ + 1;
  Send(pull_target_, std::move(req));
}

void Node::HandlePullRequest(NodeId from, const raft::PullRequest& m) {
  const auto& cfg = config_.Current();
  // Only fully reconfigured nodes serve pulls: a node halfway through
  // applying a split C_new must not be treated as a source (§III-B
  // "Subtle Corner Cases").
  if (cfg.mode != raft::ConfigMode::kStable || exchange_.has_value()) return;
  uint32_t my_epoch = current_et().epoch();
  if (my_epoch < m.epoch) return;

  raft::PullReply reply;
  reply.from = id_;
  reply.epoch = my_epoch;

  if (my_epoch == m.epoch) {
    // Same-configuration catch-up (restoring an offline peer, §V). Members
    // get committed entries; a non-member (a node that slept through its
    // own removal) gets a snapshot whose embedded configuration tells it
    // the world moved on. Only nodes that *address us as a peer* reach
    // this path, so serving our committed state is safe.
    if (!cfg.IsMember(m.from)) {
      reply.snap = snapshot_ ? snapshot_ : BuildSnapshot();
      Send(from, std::move(reply));
      return;
    }
    if (m.next_idx <= log_.base_index()) {
      reply.snap = snapshot_ ? snapshot_ : BuildSnapshot();
    } else {
      reply.entries = log_.Slice(m.next_idx, commit_);
      reply.commit = commit_;
    }
    Send(from, std::move(reply));
    return;
  }

  // Requester is behind by at least one epoch: find the boundary it must
  // cross next — the first reconfiguration that raised our epoch past its.
  const raft::ReconfigRecord* boundary = nullptr;
  for (const auto& rec : history_) {
    if (rec.epoch > m.epoch) {
      boundary = &rec;
      break;
    }
  }
  if (boundary == nullptr) return;  // inconsistent history; stay silent

  if (boundary->kind == raft::ReconfigRecord::Kind::kSplit) {
    Index upto = boundary->boundary_index;  // the split C_new entry
    if (m.next_idx > log_.base_index()) {
      reply.entries = log_.Slice(m.next_idx, std::min(upto, commit_));
      reply.commit = std::min(upto, commit_);
      reply.capped = true;
      Send(from, std::move(reply));
      return;
    }
    // Entries below the boundary are compacted away. If the requester is a
    // member of *our* cluster our snapshot is exactly what it needs; a
    // sibling-subcluster node must find a peer that still has the prefix.
    if (cfg.IsMember(m.from)) {
      reply.snap = snapshot_ ? snapshot_ : BuildSnapshot();
      Send(from, std::move(reply));
    }
    return;
  }
  // Merge boundary: the log restarted, index-based pulls cannot cross it.
  // A full snapshot carries the merged state, configuration and history;
  // non-members learn from it that (and where) the world moved on.
  reply.snap = BuildSnapshot();
  reply.capped = true;
  Send(from, std::move(reply));
}

void Node::HandlePullReply(NodeId from, const raft::PullReply& m) {
  (void)from;
  if (m.snap != nullptr) {
    const auto& snap = *m.snap;
    bool i_am_member = snap.config.IsMember(id_);
    // Install if it moves us forward. Non-members install too: the embedded
    // history tells a retired or superseded node where its lineage went.
    if (snap.last_index > commit_ ||
        snap.config.uid != config_.Current().uid) {
      InstallSnapshotState(snap, EpochTerm(snap.last_term));
      counters_.Add(i_am_member ? "recovery.snap_installed"
                                : "recovery.snap_retired");
    }
    pull_target_ = kNoNode;
    pull_attempts_ = 0;
    return;
  }
  if (m.entries.empty()) return;  // nothing useful yet; retries continue
  for (const auto& e : m.entries) {
    if (e.index <= log_.base_index()) continue;
    if (log_.Matches(e.index, e.term)) continue;
    if (e.index <= commit_) {
      counters_.Add(cid_.invariant_committed_conflict);
      return;
    }
    if (e.index <= log_.last_index()) {
      log_.TruncateFrom(e.index);
      config_.OnTruncate(e.index);
      DropPendingAcks();
    }
    // Gap between our log end and the pulled batch: ask again from our end.
    if (e.index != log_.last_index() + 1) break;
    log_.Append(e);
    config_.OnAppend(e);
  }
  Index new_commit = std::min<Index>(m.commit, log_.last_index());
  if (new_commit > commit_) {
    commit_ = new_commit;
    ApplyCommitted();  // may run CompleteSplit and bump our epoch
  }
  pull_target_ = kNoNode;
  pull_attempts_ = 0;
  counters_.Add(cid_.recovery_pull_applied);
}

void Node::InstallSnapshotState(const raft::RaftSnapshot& snap, EpochTerm et) {
  snapshot_ = std::make_shared<raft::RaftSnapshot>(snap);
  // Blob before log reset: a crash in between leaves the old log plus a
  // newer snapshot — recovery prefers whichever the WAL marker survived
  // with; both states are consistent.
  storage_.InstallSnapshot(snapshot_);
  if (snap.state) (void)machine_->Restore(*snap.state);
  log_.Reset(snap.last_index, snap.last_term);
  DropPendingAcks();
  commit_ = snap.last_index;
  applied_ = snap.last_index;
  config_.ForceState(snap.config, snap.last_index);
  unsettled_aborts_ = snap.unsettled_aborts;
  // Merge histories: keep ours, add unseen records (they are ordered by
  // epoch; a simple de-dup by (epoch, uid) suffices).
  for (const auto& rec : snap.history) {
    bool seen = false;
    for (const auto& mine : history_) {
      if (mine.epoch == rec.epoch && mine.uid == rec.uid) {
        seen = true;
        break;
      }
    }
    if (!seen) history_.push_back(rec);
  }
  if (et.raw() > term_) {
    term_ = et.raw();
    voted_for_ = kNoNode;
  }
  role_ = Role::kFollower;
  votes_.clear();
  ClearProgress();
  FailPendingClients(Code::kUnavailable);
  // If we were waiting on a merge exchange and the snapshot is the merged
  // cluster's state, the wait is over. The snapshot (with the merged data)
  // is already durable above, so clearing the pending marker is safe.
  if (exchange_.has_value() &&
      snap.config.uid == exchange_->plan.new_uid) {
    exchange_.reset();
    PersistExchangeMetaNow();
  }
  ResetElectionTimer();
  counters_.Add(cid_.recovery_install_snapshot);
}

// ---------------------------------------------------------------------------
// Boot from storage: reconstruct a node purely from its durable image —
// no volatile state from any previous incarnation survives. Every node
// constructed over a non-blank medium boots here (World::RestartNode, a
// restarted recraftd); exercised by the crash-recovery chaos suites.

void Node::BootFromStorage(storage::BootImage img) {
  counters_.Add(cid_.node_boot);
  machine_ = opts_.machine_factory(KeyRange::Empty());
  raft::ConfigState blank;
  blank.range = KeyRange::Empty();
  config_.Init(std::move(blank));

  term_ = img.hard.term;
  voted_for_ = img.hard.voted_for;

  if (img.snap != nullptr) {
    const raft::RaftSnapshot& snap = *img.snap;
    if (snap.state != nullptr) {
      (void)machine_->Restore(*snap.state);
    } else {
      machine_->Reset(snap.config.range);
    }
    config_.ForceState(snap.config, snap.last_index);
    history_ = snap.history;
    unsettled_aborts_ = snap.unsettled_aborts;
    snapshot_ = img.snap;
  }
  log_.BootSetBase(img.base_index, img.base_term);
  applied_ = img.base_index;

  // A merged cluster's log begins with its committed outcome entry, whose
  // configuration was force-installed by TransitionToMerged rather than
  // derived from the entry (the tracker treats outcome entries as pending
  // resolutions). Rebuild that fiat state the same way — before replaying
  // the rest of the log, so post-merge config entries stack on top of it.
  bool merged_genesis = false;
  if (img.snap == nullptr && img.base_index == 0 && !img.entries.empty()) {
    if (const auto* oc = std::get_if<raft::ConfMergeOutcome>(
            &img.entries.front().payload);
        oc != nullptr && oc->commit && img.entries.front().index == 1) {
      merged_genesis = true;
      const raft::MergePlan& plan = oc->plan;
      raft::ConfigState ns;
      ns.mode = raft::ConfigMode::kStable;
      ns.members = plan.ResumeMembers();
      std::sort(ns.members.begin(), ns.members.end());
      ns.range = plan.new_range;
      ns.uid = plan.new_uid;
      config_.ForceState(std::move(ns), 1);
      term_ = std::max(term_, EpochTerm::Make(plan.new_epoch, 0).raw());
      bool seen = false;
      for (const auto& rec : history_) {
        if (rec.uid == plan.new_uid && rec.epoch == plan.new_epoch) {
          seen = true;
        }
      }
      if (!seen) {
        raft::ReconfigRecord rec;
        rec.kind = raft::ReconfigRecord::Kind::kMerge;
        rec.epoch = plan.new_epoch;
        rec.uid = plan.new_uid;
        rec.members = plan.ResumeMembers();
        rec.range = plan.new_range;
        history_.push_back(std::move(rec));
      }
      machine_->Reset(IsRetired() ? KeyRange::Empty() : plan.new_range);
    }
  }

  // Replay entries into the cache and the wait-free config tracker. The
  // merged-genesis entry is already reflected in the forced state — feeding
  // it to the tracker again would mark the resolved merge as pending.
  for (const auto& e : img.entries) {
    if (!(merged_genesis && e.index == 1)) config_.OnAppend(e);
    log_.BootAppend(e);  // copies into the fresh log's own slabs (cold path)
  }
  commit_ = std::min<Index>(std::max<Index>(img.hard.commit, applied_),
                            log_.last_index());

  // Merge-exchange runtime: sealed snapshots this node serves, and GC
  // bookkeeping for pruning them.
  exchange_store_ = std::move(img.sealed);
  for (const auto& g : img.exchange.gc) {
    ExchangeGc gc;
    gc.resumed = g.resumed;
    gc.targets = g.targets;
    gc.done.insert(g.done.begin(), g.done.end());
    gc.self_done = g.self_done;
    gc.retry_countdown = kMergeRetryTicks;
    exchange_gc_[g.tx] = std::move(gc);
  }

  // The cache now mirrors durable state: attach the sink so new mutations
  // persist (replayed state must not be echoed back).
  log_.Attach(&storage_);

  // Resume a pending snapshot exchange *before* applying: the store lacks
  // other sources' data, so the deferred-apply guard must hold. Only when
  // the durable log already is the merged one — otherwise the replay below
  // re-runs the transition and starts the exchange itself.
  if (img.exchange.pending_plan.has_value() && !exchange_.has_value() &&
      config_.Current().uid == img.exchange.pending_plan->new_uid) {
    counters_.Add(cid_.recovery_exchange_resumed);
    StartExchange(*img.exchange.pending_plan);
  }

  // Rebuild the state machine by replaying committed entries through the
  // normal apply path (reconfig handlers re-run with their replay guards).
  ApplyCommitted();
  RLOG_INFO("boot", "n%u booted from storage: base=%llu last=%llu commit=%llu",
            id_, static_cast<unsigned long long>(log_.base_index()),
            static_cast<unsigned long long>(log_.last_index()),
            static_cast<unsigned long long>(commit_));
}

void Node::PersistExchangeMetaNow() {
  storage::ExchangeMeta meta;
  if (exchange_.has_value()) meta.pending_plan = exchange_->plan;
  for (const auto& [tx, gc] : exchange_gc_) {
    storage::ExchangeGcImage img;
    img.tx = tx;
    img.resumed = gc.resumed;
    img.targets = gc.targets;
    img.done.assign(gc.done.begin(), gc.done.end());
    img.self_done = gc.self_done;
    meta.gc.push_back(std::move(img));
  }
  storage_.PersistExchangeMeta(meta);
}

void Node::HandleNamingLookupReply(const raft::NamingLookupReply& m) {
  naming_query_inflight_ = false;
  if (m.clusters.empty()) return;
  // Prefer a cluster that covers our key range (our lineage's successor);
  // fall back to any cluster listing us as a member.
  const raft::NamingRegister* best = nullptr;
  for (const auto& c : m.clusters) {
    if (c.uid == config_.Current().uid && c.epoch <= current_et().epoch()) {
      continue;  // that's us
    }
    if (c.range.Overlaps(EffectiveRange())) {
      if (best == nullptr || c.epoch > best->epoch) best = &c;
    }
  }
  if (best == nullptr) {
    for (const auto& c : m.clusters) {
      if (std::find(c.members.begin(), c.members.end(), id_) !=
          c.members.end()) {
        best = &c;
        break;
      }
    }
  }
  if (best == nullptr || best->members.empty()) return;
  silent_ticks_ = 0;
  StartPull(best->members.front());
}

}  // namespace recraft::core
