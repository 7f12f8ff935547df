#include "tc/cluster_manager.h"

#include "common/logging.h"

namespace recraft::tc {

constexpr Duration kTickInterval = 10 * kMillisecond;
constexpr Duration kRetryInterval = 100 * kMillisecond;
// Emulated time to restart a wiped node as a member of the new cluster.
constexpr Duration kRestartDelay = 200 * kMillisecond;

const char* CmPhaseName(CmPhase p) {
  switch (p) {
    case CmPhase::kIdle: return "idle";
    case CmPhase::kRemoving: return "removing";
    case CmPhase::kSnapshotting: return "snapshotting";
    case CmPhase::kRestarting: return "restarting";
    case CmPhase::kRangeChange: return "range-change";
    case CmPhase::kMergeSnapshot: return "merge-snapshot";
    case CmPhase::kMergeInject: return "merge-inject";
    case CmPhase::kMergeTerminate: return "merge-terminate";
    case CmPhase::kMergeRejoin: return "merge-rejoin";
    case CmPhase::kDone: return "done";
    case CmPhase::kFailed: return "failed";
  }
  return "?";
}

ClusterManager::ClusterManager(harness::World& world, NodeId id,
                               TcOptions opts)
    : world_(world), id_(id), opts_(opts) {
  world_.net().Register(
      id_, [this](NodeId from, std::shared_ptr<const void> payload, size_t,
                  obs::TraceCtx) {
        OnMessage(from,
                  *std::static_pointer_cast<const raft::Message>(payload));
      });
  // Self-rescheduling tick, frozen (but still re-armed) while crashed.
  tick_event_ =
      world_.events().Schedule(kTickInterval, [this]() { RearmTick(); });
}

void ClusterManager::RearmTick() {
  if (!world_.IsCrashed(id_)) Tick();
  tick_event_ =
      world_.events().Schedule(kTickInterval, [this]() { RearmTick(); });
}

ClusterManager::~ClusterManager() {
  world_.events().Cancel(tick_event_);
  world_.net().Unregister(id_);
}

NodeId ClusterManager::GuessLeader(const std::vector<NodeId>& members) const {
  if (leader_hint_ != kNoNode &&
      std::find(members.begin(), members.end(), leader_hint_) !=
          members.end()) {
    return leader_hint_;
  }
  NodeId l = world_.LeaderOf(members);
  return l != kNoNode ? l : members.front();
}

void ClusterManager::StartSplit(SplitOp op) {
  split_ = std::move(op);
  merge_.reset();
  if (standby_armed_) return;  // hold until the primary dies
  op_start_ = phase_start_ = world_.now();
  timings_ = CmTimings{};
  group_cursor_ = 1;
  node_cursor_ = 0;
  snaps_.clear();
  BeginPhase(CmPhase::kRemoving);
  Advance();
}

void ClusterManager::StartMerge(MergeOp op) {
  merge_ = std::move(op);
  split_.reset();
  if (standby_armed_) return;
  op_start_ = phase_start_ = world_.now();
  timings_ = CmTimings{};
  group_cursor_ = 1;
  node_cursor_ = 0;
  snaps_.clear();
  BeginPhase(CmPhase::kMergeSnapshot);
  Advance();
}

void ClusterManager::MonitorAsStandby(NodeId primary) {
  primary_ = primary;
  standby_armed_ = true;
}

void ClusterManager::BeginPhase(CmPhase next) {
  RecordPhaseDuration();
  phase_ = next;
  phase_start_ = world_.now();
  retry_countdown_ = 0;
  leader_hint_ = kNoNode;
  RLOG_DEBUG("tc", "cm%u enters phase %s", id_, CmPhaseName(next));
}

void ClusterManager::RecordPhaseDuration() {
  Duration d = world_.now() - phase_start_;
  switch (phase_) {
    case CmPhase::kRemoving: timings_.remove += d; break;
    case CmPhase::kSnapshotting: timings_.snapshot += d; break;
    case CmPhase::kRestarting: timings_.restart += d; break;
    case CmPhase::kRangeChange: timings_.range_change += d; break;
    case CmPhase::kMergeSnapshot: timings_.snapshot += d; break;
    case CmPhase::kMergeInject: timings_.inject += d; break;
    case CmPhase::kMergeTerminate: timings_.terminate += d; break;
    case CmPhase::kMergeRejoin: timings_.rejoin += d; break;
    default: break;
  }
  if (phase_ != CmPhase::kIdle) timings_.total = world_.now() - op_start_;
}

void ClusterManager::Tick() {
  // Standby takeover: re-execute the stored operation when the primary is
  // down (all steps are idempotent).
  if (standby_armed_ && primary_ != kNoNode && world_.IsCrashed(primary_)) {
    standby_armed_ = false;
    RLOG_INFO("tc", "cm%u takes over from crashed primary cm%u", id_,
              primary_);
    if (split_.has_value()) {
      SplitOp op = *split_;
      StartSplit(std::move(op));
    } else if (merge_.has_value()) {
      MergeOp op = *merge_;
      StartMerge(std::move(op));
    }
    return;
  }
  if (phase_ == CmPhase::kIdle || phase_ == CmPhase::kDone ||
      phase_ == CmPhase::kFailed) {
    return;
  }
  if (phase_ == CmPhase::kRestarting && restart_ready_at_ != 0) {
    if (world_.now() >= restart_ready_at_ && pending_acks_.empty()) {
      restart_ready_at_ = 0;
      ++group_cursor_;
      node_cursor_ = 0;
      Advance();
    }
    return;
  }
  if (retry_countdown_ > kTickInterval) {
    retry_countdown_ -= kTickInterval;
    return;
  }
  retry_countdown_ = kRetryInterval;
  leader_hint_ = kNoNode;  // re-probe on retry
  SendCurrent();
}

void ClusterManager::Advance() {
  if (split_.has_value()) {
    SplitAdvance();
  } else if (merge_.has_value()) {
    MergeAdvance();
  }
}

// ---------------------------------------------------------------------------
// Split: remove -> snapshot -> restart -> range change.

void ClusterManager::SplitAdvance() {
  const SplitOp& op = *split_;
  switch (phase_) {
    case CmPhase::kRemoving: {
      // Remove every node of groups[1..], one AR-RPC at a time.
      if (group_cursor_ >= op.groups.size()) {
        group_cursor_ = 1;
        node_cursor_ = 0;
        BeginPhase(CmPhase::kSnapshotting);
        SplitAdvance();
        return;
      }
      if (node_cursor_ >= op.groups[group_cursor_].size()) {
        ++group_cursor_;
        node_cursor_ = 0;
        SplitAdvance();
        return;
      }
      SendCurrent();
      return;
    }
    case CmPhase::kSnapshotting: {
      if (group_cursor_ >= op.groups.size()) {
        group_cursor_ = 1;
        node_cursor_ = 0;
        BeginPhase(CmPhase::kRestarting);
        SplitAdvance();
        return;
      }
      SendCurrent();
      return;
    }
    case CmPhase::kRestarting: {
      if (group_cursor_ >= op.groups.size()) {
        BeginPhase(CmPhase::kRangeChange);
        SplitAdvance();
        return;
      }
      // Bootstrap every node of the group, then hold for the restart delay.
      pending_acks_.clear();
      for (NodeId n : op.groups[group_cursor_]) pending_acks_.insert(n);
      restart_ready_at_ = world_.now() + kRestartDelay;
      SendCurrent();
      return;
    }
    case CmPhase::kRangeChange:
      SendCurrent();
      return;
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// Merge: snapshot each absorbed cluster -> inject -> terminate -> rejoin.

void ClusterManager::MergeAdvance() {
  const MergeOp& op = *merge_;
  switch (phase_) {
    case CmPhase::kMergeSnapshot: {
      if (group_cursor_ >= op.clusters.size()) {
        group_cursor_ = 1;
        BeginPhase(CmPhase::kMergeInject);
        MergeAdvance();
        return;
      }
      SendCurrent();
      return;
    }
    case CmPhase::kMergeInject: {
      if (group_cursor_ >= op.clusters.size()) {
        group_cursor_ = 1;
        node_cursor_ = 0;
        BeginPhase(CmPhase::kMergeTerminate);
        MergeAdvance();
        return;
      }
      SendCurrent();
      return;
    }
    case CmPhase::kMergeTerminate: {
      if (group_cursor_ >= op.clusters.size()) {
        group_cursor_ = 1;
        node_cursor_ = 0;
        BeginPhase(CmPhase::kMergeRejoin);
        MergeAdvance();
        return;
      }
      pending_acks_.clear();
      for (NodeId n : op.clusters[group_cursor_]) pending_acks_.insert(n);
      SendCurrent();
      return;
    }
    case CmPhase::kMergeRejoin: {
      if (group_cursor_ >= op.clusters.size()) {
        RecordPhaseDuration();
        phase_ = CmPhase::kDone;
        RLOG_INFO("tc", "cm%u merge done in %s", id_,
                  FormatTime(timings_.total).c_str());
        return;
      }
      if (node_cursor_ >= op.clusters[group_cursor_].size()) {
        ++group_cursor_;
        node_cursor_ = 0;
        MergeAdvance();
        return;
      }
      SendCurrent();
      return;
    }
    default:
      return;
  }
}

void ClusterManager::SendCurrent() {
  if (split_.has_value()) {
    const SplitOp& op = *split_;
    switch (phase_) {
      case CmPhase::kRemoving: {
        if (group_cursor_ >= op.groups.size() ||
            node_cursor_ >= op.groups[group_cursor_].size()) {
          return;
        }
        raft::MemberChange mc;
        mc.kind = raft::MemberChangeKind::kRemoveServer;
        mc.nodes = {op.groups[group_cursor_][node_cursor_]};
        raft::ClientRequest req;
        req.req_id = world_.NextReqId();
        step_reqs_.insert(req.req_id);
        req.from = id_;
        req.body = raft::AdminMember{mc};
        auto msg = raft::MakeMessage(raft::Message(req));
        world_.net().Send(id_, GuessLeader(op.source_members), msg,
                          msg.wire_bytes());
        return;
      }
      case CmPhase::kSnapshotting: {
        raft::RangeSnapReq req;
        req.from = id_;
        req.range = op.ranges[group_cursor_];
        auto msg = raft::MakeMessage(raft::Message(req));
        world_.net().Send(id_, GuessLeader(op.source_members), msg,
                          msg.wire_bytes());
        return;
      }
      case CmPhase::kRestarting: {
        raft::ConfigState genesis;
        genesis.members = op.groups[group_cursor_];
        std::sort(genesis.members.begin(), genesis.members.end());
        genesis.range = op.ranges[group_cursor_];
        genesis.uid =
            Mix64(0x7c17 + opts_.op_salt, Mix64(id_, group_cursor_ + op_seq_));
        for (NodeId n : pending_acks_) {
          raft::BootstrapReq req;
          req.from = id_;
          req.op_id = opts_.op_salt * 100000 + op_seq_ * 1000 + group_cursor_;
          req.genesis = genesis;
          req.data = snaps_[group_cursor_];
          auto msg = raft::MakeMessage(raft::Message(req));
          world_.net().Send(id_, n, msg, msg.wire_bytes());
        }
        return;
      }
      case CmPhase::kRangeChange: {
        raft::AdminSetRange body;
        body.range = op.ranges[0];
        raft::ClientRequest req;
        req.req_id = world_.NextReqId();
        step_reqs_.insert(req.req_id);
        req.from = id_;
        req.body = body;
        // Only the remaining source members: after the bootstrap the split-
        // out nodes lead their own cluster and must not get this request.
        auto msg = raft::MakeMessage(raft::Message(req));
        world_.net().Send(id_, GuessLeader(op.groups[0]), msg,
                          msg.wire_bytes());
        return;
      }
      default:
        return;
    }
  }
  if (merge_.has_value()) {
    const MergeOp& op = *merge_;
    switch (phase_) {
      case CmPhase::kMergeSnapshot: {
        raft::RangeSnapReq req;
        req.from = id_;
        req.range = op.ranges[group_cursor_];
        auto msg = raft::MakeMessage(raft::Message(req));
        world_.net().Send(id_, GuessLeader(op.clusters[group_cursor_]), msg,
                          msg.wire_bytes());
        return;
      }
      case CmPhase::kMergeInject: {
        // Extend the survivor's range cluster by cluster, absorbing data.
        std::vector<KeyRange> parts;
        for (size_t i = 0; i <= group_cursor_; ++i) parts.push_back(op.ranges[i]);
        auto merged = KeyRange::MergeAdjacent(parts);
        if (!merged.ok()) {
          phase_ = CmPhase::kFailed;
          return;
        }
        raft::AdminSetRange body;
        body.range = *merged;
        body.absorb = snaps_[group_cursor_];
        raft::ClientRequest req;
        req.req_id = world_.NextReqId();
        step_reqs_.insert(req.req_id);
        req.from = id_;
        req.body = body;
        auto msg = raft::MakeMessage(raft::Message(std::move(req)));
        world_.net().Send(id_, GuessLeader(op.clusters[0]), msg,
                          msg.wire_bytes());
        return;
      }
      case CmPhase::kMergeTerminate: {
        raft::ConfigState empty;
        empty.members = {};
        empty.range = KeyRange::Empty();
        empty.uid = Mix64(0xdead + opts_.op_salt, op_seq_);
        for (NodeId n : pending_acks_) {
          raft::BootstrapReq req;
          req.from = id_;
          req.op_id = opts_.op_salt * 100000 + op_seq_ * 2000 + group_cursor_;
          req.genesis = empty;
          auto msg = raft::MakeMessage(raft::Message(req));
          world_.net().Send(id_, n, msg, msg.wire_bytes());
        }
        return;
      }
      case CmPhase::kMergeRejoin: {
        raft::MemberChange mc;
        mc.kind = raft::MemberChangeKind::kAddServer;
        mc.nodes = {op.clusters[group_cursor_][node_cursor_]};
        raft::ClientRequest req;
        req.req_id = world_.NextReqId();
        step_reqs_.insert(req.req_id);
        req.from = id_;
        req.body = raft::AdminMember{mc};
        auto msg = raft::MakeMessage(raft::Message(req));
        world_.net().Send(id_, GuessLeader(op.clusters[0]), msg,
                          msg.wire_bytes());
        return;
      }
      default:
        return;
    }
  }
}

void ClusterManager::OnMessage(NodeId from, const raft::Message& m) {
  if (const auto* reply = std::get_if<raft::ClientReply>(&m)) {
    if (step_reqs_.count(reply->req_id) == 0) return;
    if (reply->status.ok() ||
        // Idempotent re-execution: "not a member" / "already a member"
        // rejections mean the step already happened.
        (reply->status.code() == Code::kRejected &&
         (reply->status.message().find("not a member") != std::string::npos ||
          reply->status.message().find("already a member") !=
              std::string::npos))) {
      step_reqs_.clear();
      if (phase_ == CmPhase::kRemoving) {
        ++node_cursor_;
        retry_countdown_ = 0;
        Advance();
      } else if (phase_ == CmPhase::kMergeRejoin) {
        ++node_cursor_;
        retry_countdown_ = kRetryInterval;  // let the joiner settle
        Advance();
      } else if (phase_ == CmPhase::kRangeChange) {
        RecordPhaseDuration();
        phase_ = CmPhase::kDone;
        RLOG_INFO("tc", "cm%u split done in %s", id_,
                  FormatTime(timings_.total).c_str());
      } else if (phase_ == CmPhase::kMergeInject) {
        ++group_cursor_;
        Advance();
      }
      return;
    }
    if (reply->status.code() == Code::kNotLeader &&
        reply->leader_hint != kNoNode) {
      leader_hint_ = reply->leader_hint;
      SendCurrent();
    }
    // Other failures: the tick-driven retry handles it.
    return;
  }
  if (const auto* snap = std::get_if<raft::RangeSnapReply>(&m)) {
    if (phase_ != CmPhase::kSnapshotting && phase_ != CmPhase::kMergeSnapshot) {
      return;
    }
    if (snap->retry) {
      if (snap->leader_hint != kNoNode) {
        leader_hint_ = snap->leader_hint;
        SendCurrent();
      }
      return;
    }
    if (!snap->ok || !snap->snap) return;
    // Match the reply to its step by the echoed range (duplicate replies
    // from retransmissions may arrive after the cursor moved on).
    const auto& ranges = split_.has_value() ? split_->ranges : merge_->ranges;
    size_t idx = ranges.size();
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (ranges[i] == snap->range) {
        idx = i;
        break;
      }
    }
    if (idx >= ranges.size()) return;
    snaps_[idx] = snap->snap;
    if (idx == group_cursor_) {
      ++group_cursor_;
      retry_countdown_ = 0;
      Advance();
    }
    return;
  }
  if (const auto* ack = std::get_if<raft::BootstrapAck>(&m)) {
    (void)ack;
    pending_acks_.erase(from);
    if (pending_acks_.empty() && phase_ == CmPhase::kMergeTerminate) {
      ++group_cursor_;
      Advance();
    }
    // kRestarting waits for restart_ready_at_ in Tick().
    return;
  }
}

// ---------------------------------------------------------------------------

Result<CmTimings> RunTcSplit(harness::World& world, NodeId cm_id, SplitOp op,
                             TcOptions opts, Duration timeout) {
  ClusterManager cm(world, cm_id, opts);
  cm.StartSplit(std::move(op));
  bool ok = world.RunUntil([&]() { return cm.done() || cm.failed(); }, timeout);
  if (!ok || cm.failed()) {
    return Timeout(std::string("TC split stuck in phase ") +
                   CmPhaseName(cm.phase()));
  }
  return cm.timings();
}

Result<CmTimings> RunTcMerge(harness::World& world, NodeId cm_id, MergeOp op,
                             TcOptions opts, Duration timeout) {
  ClusterManager cm(world, cm_id, opts);
  cm.StartMerge(std::move(op));
  bool ok = world.RunUntil([&]() { return cm.done() || cm.failed(); }, timeout);
  if (!ok || cm.failed()) {
    return Timeout(std::string("TC merge stuck in phase ") +
                   CmPhaseName(cm.phase()));
  }
  return cm.timings();
}

}  // namespace recraft::tc
