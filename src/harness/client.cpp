#include "harness/client.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace recraft::harness {

namespace {
/// zeta(n, theta) = sum_{i=1..n} 1/i^theta — computed once per client.
double Zetan(uint64_t n, double theta) {
  double z = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    z += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return z;
}
}  // namespace

void Router::UpdateCluster(const KeyRange& range,
                           std::vector<NodeId> members) {
  // Drop every entry overlapping the new range, then insert the new one.
  std::vector<Entry> next;
  for (auto& e : clusters_) {
    if (!e.range.Overlaps(range)) next.push_back(std::move(e));
  }
  Entry fresh;
  fresh.range = range;
  fresh.members = std::move(members);
  next.push_back(std::move(fresh));
  clusters_ = std::move(next);
}

Router::Entry* Router::Resolve(const std::string& key) {
  for (auto& e : clusters_) {
    if (e.range.Contains(key)) return &e;
  }
  return nullptr;
}

bool Router::Refetch() {
  if (authority_ == nullptr) return false;
  if (fetched_version_ == authority_->version() && !clusters_.empty()) {
    return false;
  }
  std::vector<Entry> next;
  for (const shard::ShardInfo& s : authority_->Shards()) {
    Entry e;
    e.members = s.members;
    e.range = s.range;
    e.epoch = s.epoch;
    e.shard = s.id;
    e.leader_hint = s.leader_hint;
    // Keep a locally learned hint when the shard survived unchanged.
    for (const Entry& old : clusters_) {
      if (old.shard == s.id && old.leader_hint != kNoNode) {
        e.leader_hint = old.leader_hint;
        e.epoch = std::max(e.epoch, old.epoch);
        break;
      }
    }
    next.push_back(std::move(e));
  }
  clusters_ = std::move(next);
  fetched_version_ = authority_->version();
  return true;
}

// ---------------------------------------------------------------------------

ClosedLoopClient::ClosedLoopClient(World& world, Router& router, NodeId id,
                                   ClientOptions opts)
    : world_(world),
      router_(router),
      id_(id),
      opts_(opts),
      rng_(Mix64(0xc11e47, id)) {
  if (opts_.batch_size == 0) opts_.batch_size = 1;
  if (opts_.zipf_theta > 0.0) {
    // Gray et al., "Quickly generating billion-record synthetic databases":
    // one uniform draw per key, deterministic given the client RNG.
    const double theta = opts_.zipf_theta;
    const double n = static_cast<double>(opts_.key_space);
    zipf_zetan_ = Zetan(opts_.key_space, theta);
    const double zeta2 = Zetan(2, theta);
    zipf_alpha_ = 1.0 / (1.0 - theta);
    zipf_eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) /
                (1.0 - zeta2 / zipf_zetan_);
  }
  world_.net().Register(
      id_, [this](NodeId, std::shared_ptr<const void> payload, size_t,
                  obs::TraceCtx) {
        const auto& m =
            *std::static_pointer_cast<const raft::Message>(payload);
        if (const auto* reply = std::get_if<raft::ClientReply>(&m)) {
          OnReply(*reply);
        }
      });
}

ClosedLoopClient::~ClosedLoopClient() { world_.net().Unregister(id_); }

void ClosedLoopClient::Start() {
  running_ = true;
  IssueNext();
}

uint64_t ClosedLoopClient::NextKey() {
  uint64_t rank;
  if (opts_.zipf_theta <= 0.0) {
    rank = rng_.Uniform(0, opts_.key_space - 1);
  } else {
    const double u = rng_.NextDouble();
    const double uz = u * zipf_zetan_;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, opts_.zipf_theta)) {
      rank = 1;
    } else {
      const double n = static_cast<double>(opts_.key_space);
      auto k = static_cast<uint64_t>(
          n * std::pow(zipf_eta_ * u - zipf_eta_ + 1.0, zipf_alpha_));
      rank = std::min<uint64_t>(k, opts_.key_space - 1);
    }
  }
  // Rotation happens after the draw, so a live offset change redirects the
  // hot set without perturbing any RNG stream.
  if (opts_.key_offset != nullptr) {
    rank = (rank + *opts_.key_offset) % opts_.key_space;
  }
  return rank;
}

void ClosedLoopClient::IssueNext() {
  if (!running_) return;
  ++generation_;
  round_.clear();
  round_.resize(opts_.batch_size);
  char buf[48];
  for (uint64_t slot = 0; slot < round_.size(); ++slot) {
    PendingOp& op = round_[slot];
    uint64_t k = NextKey();
    std::snprintf(buf, sizeof(buf), "%s%08llu", opts_.key_prefix.c_str(),
                  static_cast<unsigned long long>(k));
    op.cmd.key = buf;
    // One kv session per slot (slot 0 is the client id): ops of a round
    // land in any order, and a session answers every seq at or below its
    // high-water mark from cache, so it must never have two in flight.
    op.cmd.client_id = (slot << 32) | id_;
    op.cmd.seq = next_seq_++;
    // Draw order is load-bearing for deterministic schedules: with the new
    // fractions at their 0 defaults this consumes exactly the historical
    // RNG stream (one key draw, plus one Chance when get_fraction > 0).
    if (opts_.get_fraction > 0 && rng_.Chance(opts_.get_fraction)) {
      op.cmd.op = kv::OpType::kGet;
    } else if (opts_.scan_fraction > 0 && rng_.Chance(opts_.scan_fraction)) {
      op.cmd.op = kv::OpType::kScan;
      op.cmd.scan_hi.clear();  // to the shard's end, capped by the limit
      op.cmd.scan_limit = opts_.scan_limit;
    } else if (opts_.cas_fraction > 0 && rng_.Chance(opts_.cas_fraction)) {
      op.cmd.op = kv::OpType::kCas;
      op.cmd.value.assign(opts_.value_bytes, 'x');
      // Alternate between expect-present and expect-absent so both CAS
      // outcomes (OK and kConflict) occur under load.
      if (op.cmd.seq % 2 == 0) op.cmd.expected.assign(opts_.value_bytes, 'x');
    } else {
      op.cmd.op = kv::OpType::kPut;
      op.cmd.value.assign(opts_.value_bytes, 'x');
    }
    if (opts_.recorder != nullptr) {
      op.trace_id = opts_.recorder->NewTraceId();
      op.span = opts_.recorder->BeginSpan(
          id_, obs::Name::kClientOp, obs::TraceCtx{op.trace_id, 0},
          static_cast<uint64_t>(op.cmd.op));
    }
  }
  // Batch per shard: ops bound for the same group leave back-to-back.
  if (round_.size() > 1) {
    std::stable_sort(round_.begin(), round_.end(),
                     [this](const PendingOp& a, const PendingOp& b) {
                       Router::Entry* ea = router_.Resolve(a.cmd.key);
                       Router::Entry* eb = router_.Resolve(b.cmd.key);
                       auto ka = ea ? ea->shard : shard::kNoShard;
                       auto kb = eb ? eb->shard : shard::kNoShard;
                       if (ka != kb) return ka < kb;
                       return a.cmd.key < b.cmd.key;
                     });
  }
  round_open_ = round_.size();
  for (size_t i = 0; i < round_.size(); ++i) SendOp(i);
  ArmRoundTimeout();
}

void ClosedLoopClient::SendOp(size_t idx) {
  if (!running_) return;
  PendingOp& op = round_[idx];
  Router::Entry* entry = router_.Resolve(op.cmd.key);
  if (entry == nullptr || entry->members.empty()) {
    // No routing information: try to refresh, else wait for the round
    // timeout to retry.
    router_.Refetch();
    entry = router_.Resolve(op.cmd.key);
    if (entry == nullptr || entry->members.empty()) return;
  }
  NodeId target = entry->leader_hint;
  if (target == kNoNode ||
      std::find(entry->members.begin(), entry->members.end(), target) ==
          entry->members.end()) {
    target = entry->members[entry->rotate++ % entry->members.size()];
  }
  op.req_id = world_.NextReqId();
  if (op.issued_at == 0) op.issued_at = world_.now();
  raft::ClientRequest req;
  req.req_id = op.req_id;
  req.from = id_;
  // Reads ride the ReadIndex path: the leader confirms its commit index
  // with one probe round and serves from applied state — no log entry, no
  // WAL flush, no replication fan-out per read.
  if (kv::IsReadOnly(op.cmd.op) && !opts_.reads_via_log) {
    req.body = raft::ReadRequest{kv::EncodeCommand(op.cmd)};
  } else {
    req.body = kv::EncodeCommand(op.cmd);
  }
  auto msg = raft::MakeMessage(raft::Message(req));
  if (op.trace_id != 0) {
    msg.set_trace_ctx(obs::TraceCtx{op.trace_id, op.span});
    if (++op.attempts > 1 && opts_.recorder != nullptr) {
      opts_.recorder->Emit(id_, obs::Name::kClientRetry,
                           obs::TraceCtx{op.trace_id, op.span}, op.attempts);
    }
  }
  world_.net().Send(id_, target, msg, msg.wire_bytes(), msg.trace_ctx());
}

void ClosedLoopClient::ScheduleResend(size_t idx, Duration delay) {
  uint64_t gen = generation_;
  world_.events().Schedule(
      delay, [this, gen, idx, alive = std::weak_ptr<int>(alive_)]() {
        if (alive.expired() || !running_ || gen != generation_) return;
        if (idx >= round_.size() || round_[idx].done) return;
        SendOp(idx);
      });
}

void ClosedLoopClient::ArmRoundTimeout() {
  uint64_t gen = generation_;
  world_.events().Schedule(
      opts_.retry_timeout, [this, gen, alive = std::weak_ptr<int>(alive_)]() {
        if (!alive.expired()) OnRoundTimeout(gen);
      });
}

void ClosedLoopClient::OnRoundTimeout(uint64_t generation) {
  if (!running_ || generation != generation_) return;
  // Lost messages or a dead routing target: re-send everything still open
  // (same sequence numbers — the session layer deduplicates), dropping
  // leader hints so another member gets probed. Refetch first: when every
  // member of a cached group was freed and wiped, each answers NotLeader
  // with no hint, so no reply would ever reveal that the map moved on.
  router_.Refetch();
  for (size_t i = 0; i < round_.size(); ++i) {
    if (round_[i].done) continue;
    ++retries_;
    Router::Entry* entry = router_.Resolve(round_[i].cmd.key);
    if (entry != nullptr) entry->leader_hint = kNoNode;
    SendOp(i);
  }
  ArmRoundTimeout();
}

void ClosedLoopClient::CompleteOp(PendingOp& op, const raft::ClientReply& reply) {
  op.done = true;
  ++ops_done_;
  if (op.span != 0 && opts_.recorder != nullptr) {
    opts_.recorder->EndSpan(id_, obs::Name::kClientOp, op.span,
                            reply.status.ok() ? obs::Outcome::kOk
                                              : obs::Outcome::kError,
                            static_cast<uint64_t>(reply.status.code()),
                            op.trace_id);
  }
  if (kv::IsReadOnly(op.cmd.op)) ++reads_done_;
  Duration lat = world_.now() - op.issued_at;
  latency_.Record(lat);
  if (opts_.latency != nullptr) opts_.latency->Record(lat);
  if (opts_.throughput != nullptr) opts_.throughput->Record(world_.now());
  if (opts_.on_op_complete) opts_.on_op_complete(op.cmd.key, world_.now());
  Router::Entry* entry = router_.Resolve(op.cmd.key);
  if (entry != nullptr) {
    entry->leader_hint = reply.from;
    if (reply.epoch > entry->epoch) {
      // The group reconfigured since the map was fetched; if it no longer
      // serves the cached range, our whole copy is suspect.
      entry->epoch = reply.epoch;
      if (!(reply.serving_range == entry->range)) router_.Refetch();
    }
  }
  if (--round_open_ == 0) IssueNext();
}

void ClosedLoopClient::OnReply(const raft::ClientReply& reply) {
  if (!running_) return;
  size_t idx = round_.size();
  for (size_t i = 0; i < round_.size(); ++i) {
    if (!round_[i].done && round_[i].req_id == reply.req_id) {
      idx = i;
      break;
    }
  }
  if (idx == round_.size()) return;  // stale transmission's reply
  PendingOp& op = round_[idx];
  Code code = reply.status.code();

  if (code == Code::kNotLeader || code == Code::kBusy ||
      code == Code::kUnavailable) {
    ++retries_;
    Router::Entry* entry = router_.Resolve(op.cmd.key);
    if (entry != nullptr) entry->leader_hint = reply.leader_hint;
    // Brief backoff so a mid-reconfiguration group is not hammered.
    ScheduleResend(idx, 10 * kMillisecond);
    return;
  }
  if (code == Code::kWrongShard || code == Code::kOutOfRange) {
    // Stale routing: the replying group does not serve the key (wrong
    // shard), or the command committed after a split moved the range
    // (out-of-range at apply). Refetch the map and re-route.
    ++retries_;
    ++wrong_shard_retries_;
    if (!router_.Refetch()) {
      // Same map version (or manual mode): drop the hint so rotation finds
      // a member of whichever group took over.
      Router::Entry* entry = router_.Resolve(op.cmd.key);
      if (entry != nullptr) entry->leader_hint = kNoNode;
    }
    ScheduleResend(idx, 10 * kMillisecond);
    return;
  }
  // Success (OK / NotFound for gets and deletes count as completed ops).
  CompleteOp(op, reply);
}

// ---------------------------------------------------------------------------

ClientFleet::ClientFleet(World& world, Router& router, size_t n,
                         ClientOptions opts) {
  opts.throughput = &throughput_;
  for (size_t i = 0; i < n; ++i) {
    clients_.push_back(std::make_unique<ClosedLoopClient>(
        world, router, static_cast<NodeId>(kFirstClientId + i), opts));
  }
}

void ClientFleet::Start() {
  for (auto& c : clients_) c->Start();
}

void ClientFleet::Stop() {
  for (auto& c : clients_) c->Stop();
}

uint64_t ClientFleet::TotalOps() const {
  uint64_t n = 0;
  for (const auto& c : clients_) n += c->ops_done();
  return n;
}

uint64_t ClientFleet::TotalReads() const {
  uint64_t n = 0;
  for (const auto& c : clients_) n += c->reads_done();
  return n;
}

uint64_t ClientFleet::TotalWrongShardRetries() const {
  uint64_t n = 0;
  for (const auto& c : clients_) n += c->wrong_shard_retries();
  return n;
}

LatencyRecorder ClientFleet::PooledLatency() const {
  LatencyRecorder pooled;
  for (const auto& c : clients_) pooled.Merge(c->latency());
  return pooled;
}

}  // namespace recraft::harness
