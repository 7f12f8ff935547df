#include "harness/nemesis.h"

#include <algorithm>
#include <cassert>

#include "raft/messages.h"

namespace recraft::harness {

namespace {

/// Fisher-Yates over a copy, driven by the nemesis' own RNG.
std::vector<NodeId> Shuffled(const std::vector<NodeId>& in, Rng& rng) {
  std::vector<NodeId> v = in;
  for (size_t i = v.size(); i > 1; --i) {
    size_t j = rng.Uniform(0, i - 1);
    std::swap(v[i - 1], v[j]);
  }
  return v;
}

}  // namespace

Nemesis::~Nemesis() = default;

void Nemesis::Arm(World& world, NemesisTargets targets, Rng rng) {
  Disarm();
  targets_ = std::move(targets);
  rng_ = rng;
  armed_ = true;
  alive_ = std::make_shared<World*>(&world);
  ScheduleToggle(world);
}

void Nemesis::Disarm() {
  if (!armed_) return;
  armed_ = false;
  World* world = alive_ ? *alive_ : nullptr;
  alive_.reset();  // orphans every queued toggle event
  if (active_ && world != nullptr) {
    Heal(*world);
    active_ = false;
  }
}

void Nemesis::ScheduleToggle(World& world) {
  Duration lo = active_ ? schedule_.min_active : schedule_.min_quiet;
  Duration hi = active_ ? schedule_.max_active : schedule_.max_quiet;
  Duration d = rng_.Uniform(lo, std::max(lo, hi));
  std::weak_ptr<World*> alive = alive_;
  world.events().Schedule(d, [this, alive]() {
    auto token = alive.lock();
    if (token == nullptr) return;  // disarmed since this was queued
    Toggle(**token);
  });
}

void Nemesis::Toggle(World& world) {
  if (!armed_) return;
  if (active_) {
    Heal(world);
    active_ = false;
  } else {
    Inflict(world, rng_);
    active_ = true;
    ++activations_;
  }
  ScheduleToggle(world);
}

// --- partition --------------------------------------------------------------

void PartitionNemesis::Inflict(World& world, Rng& rng) {
  const auto& m = targets_.members;
  if (m.size() < 2) return;
  auto order = Shuffled(m, rng);
  size_t cap = std::max<size_t>(1, (m.size() - 1) / 2);
  size_t k = rng.Uniform(1, cap);
  std::vector<NodeId> minority(order.begin(),
                               order.begin() + static_cast<ptrdiff_t>(k));
  std::vector<NodeId> majority(order.begin() + static_cast<ptrdiff_t>(k),
                               order.end());
  world.net().SetPartitions({minority, majority});
}

void PartitionNemesis::Heal(World& world) { world.net().ClearPartitions(); }

// --- asymmetric partition ---------------------------------------------------

void AsymPartitionNemesis::Inflict(World& world, Rng& rng) {
  const auto& m = targets_.members;
  if (m.size() < 2) return;
  auto order = Shuffled(m, rng);
  NodeId victim = order[0];
  for (size_t i = 1; i < order.size(); ++i) {
    if (!rng.Chance(0.6)) continue;
    NodeId peer = order[i];
    if (rng.Chance(0.5)) {
      blocked_.emplace_back(peer, victim);
    } else {
      blocked_.emplace_back(victim, peer);
    }
  }
  if (blocked_.empty()) blocked_.emplace_back(order[1], victim);
  for (const auto& [from, to] : blocked_) world.net().BlockOneWay(from, to);
}

void AsymPartitionNemesis::Heal(World& world) {
  for (const auto& [from, to] : blocked_) world.net().UnblockOneWay(from, to);
  blocked_.clear();
}

// --- one-way loss -----------------------------------------------------------

void OneWayLossNemesis::Inflict(World& world, Rng& rng) {
  const auto& m = targets_.members;
  if (m.size() < 2) return;
  auto order = Shuffled(m, rng);
  NodeId victim = order[0];
  bool outbound = rng.Chance(0.5);
  // Half the time total loss (p = 1.0, drawn-free on the send path), half
  // the time a heavy-but-partial p in [0.5, 1.0).
  double p = rng.Chance(0.5) ? 1.0 : 0.5 + rng.NextDouble() * 0.5;
  for (size_t i = 1; i < order.size(); ++i) {
    NodeId peer = order[i];
    if (outbound) {
      lossy_.emplace_back(victim, peer);
    } else {
      lossy_.emplace_back(peer, victim);
    }
  }
  for (const auto& [from, to] : lossy_) {
    world.net().SetLinkDropProbability(from, to, p);
  }
}

void OneWayLossNemesis::Heal(World& world) {
  for (const auto& [from, to] : lossy_) {
    world.net().ClearLinkDropProbability(from, to);
  }
  lossy_.clear();
}

// --- slow links -------------------------------------------------------------

void SlowLinksNemesis::Inflict(World& world, Rng& rng) {
  const auto& m = targets_.members;
  if (m.size() < 2) return;
  size_t n = rng.Uniform(1, std::max<size_t>(1, m.size() / 2));
  for (size_t i = 0; i < n; ++i) {
    NodeId a = m[rng.Uniform(0, m.size() - 1)];
    NodeId b = m[rng.Uniform(0, m.size() - 1)];
    if (a == b) continue;
    Duration lat = rng.Uniform(5 * kMillisecond, 25 * kMillisecond);
    world.net().SetLinkLatency(a, b, lat);
    slowed_.emplace_back(a, b);
  }
}

void SlowLinksNemesis::Heal(World& world) {
  for (const auto& [from, to] : slowed_) {
    world.net().ClearLinkLatency(from, to);
  }
  slowed_.clear();
}

// --- disk latency spike -----------------------------------------------------

void DiskLatencyNemesis::Inflict(World& world, Rng& rng) {
  for (NodeId m : targets_.members) {
    bool hit = rng.Chance(0.4);  // drawn for every member: stable stream
    storage::SimDisk* disk = world.NodeDisk(m);
    if (!hit || disk == nullptr) continue;
    disk->SetExtraFsyncLatency(rng.Uniform(2 * kMillisecond, 20 * kMillisecond));
    victims_.push_back(m);
  }
  if (victims_.empty() && !targets_.members.empty()) {
    NodeId m = targets_.members[rng.Uniform(0, targets_.members.size() - 1)];
    if (storage::SimDisk* disk = world.NodeDisk(m)) {
      disk->SetExtraFsyncLatency(rng.Uniform(2 * kMillisecond, 20 * kMillisecond));
      victims_.push_back(m);
    }
  }
}

void DiskLatencyNemesis::Heal(World& world) {
  for (NodeId m : victims_) {
    if (storage::SimDisk* disk = world.NodeDisk(m)) {
      disk->SetExtraFsyncLatency(0);
    }
  }
  victims_.clear();
}

// --- fsync stall ------------------------------------------------------------

void FsyncStallNemesis::Inflict(World& world, Rng& rng) {
  if (targets_.members.empty()) return;
  NodeId m = targets_.members[rng.Uniform(0, targets_.members.size() - 1)];
  storage::SimDisk* disk = world.NodeDisk(m);
  if (disk == nullptr) return;
  disk->SetFsyncStalled(true);
  victim_ = m;
}

void FsyncStallNemesis::Heal(World& world) {
  if (victim_ == kNoNode) return;
  if (storage::SimDisk* disk = world.NodeDisk(victim_)) {
    disk->SetFsyncStalled(false);
  }
  victim_ = kNoNode;
}

// --- clock skew -------------------------------------------------------------

void ClockSkewNemesis::Inflict(World& world, Rng& rng) {
  Duration base = world.options().node.tick_interval;
  for (NodeId m : targets_.members) {
    if (!rng.Chance(0.5)) continue;
    Duration skewed = rng.Uniform(std::max<Duration>(1, base / 2), base * 2);
    world.SetTickInterval(m, skewed);
    victims_.push_back(m);
  }
  if (victims_.empty() && !targets_.members.empty()) {
    NodeId m = targets_.members[rng.Uniform(0, targets_.members.size() - 1)];
    world.SetTickInterval(m, base * 2);
    victims_.push_back(m);
  }
}

void ClockSkewNemesis::Heal(World& world) {
  for (NodeId m : victims_) world.SetTickInterval(m, 0);
  victims_.clear();
}

// --- churn storm ------------------------------------------------------------

void ChurnStormNemesis::SendChange(World& world) {
  raft::ConfigState cfg = world.ConfigOf(targets_.members);
  if (cfg.members.empty()) return;  // all down right now; skip this phase
  NodeId leader = world.LeaderOf(cfg.members);
  if (leader == kNoNode) leader = cfg.members.front();
  bool has_spare = std::find(cfg.members.begin(), cfg.members.end(),
                             spare_) != cfg.members.end();
  raft::MemberChange mc;
  mc.kind = has_spare ? raft::MemberChangeKind::kRemoveAndResize
                      : raft::MemberChangeKind::kAddAndResize;
  mc.nodes = {spare_};
  // Fire-and-forget: nemeses run inside event callbacks where the World's
  // synchronous admin helpers (which re-enter the event loop) are off
  // limits. The reply lands in the admin stash and is evicted unread.
  raft::ClientRequest req;
  req.req_id = world.NextReqId();
  req.from = kAdminId;
  req.body = raft::AdminMember{mc};
  auto msg = raft::MakeMessage(raft::Message(req));
  world.net().Send(kAdminId, leader, msg, msg.wire_bytes());
  ++changes_requested_;
}

void ChurnStormNemesis::Inflict(World& world, Rng& rng) {
  (void)rng;
  if (spare_ == kNoNode) {
    if (targets_.spares.empty()) return;  // nothing to churn with
    spare_ = targets_.spares.front();
  }
  SendChange(world);
}

void ChurnStormNemesis::Heal(World& world) {
  if (spare_ == kNoNode) return;
  raft::ConfigState cfg = world.ConfigOf(targets_.members);
  bool has_spare = std::find(cfg.members.begin(), cfg.members.end(),
                             spare_) != cfg.members.end();
  // Undo = ask for the spare back out; if the add itself is still in
  // flight the next phase (or the sweep's convergence wait) settles it.
  if (has_spare) SendChange(world);
}

// --- crash wave -------------------------------------------------------------

void CrashWaveNemesis::Inflict(World& world, Rng& rng) {
  const auto& m = targets_.members;
  if (m.size() < 3) return;  // need a crashable minority
  size_t down = 0;
  std::vector<NodeId> up;
  for (NodeId id : m) {
    if (world.IsDown(id) || world.IsCrashed(id)) {
      ++down;
    } else {
      up.push_back(id);
    }
  }
  size_t cap = (m.size() - 1) / 2;
  if (down >= cap || up.empty()) return;
  auto order = Shuffled(up, rng);
  size_t n = rng.Uniform(1, cap - down);
  n = std::min(n, order.size());
  for (size_t i = 0; i < n; ++i) {
    storage::CrashSpec spec;
    spec.point = static_cast<storage::CrashPoint>(
        rng.Uniform(0, 2));  // kLosePending | kTornTail | kPartialBatch
    if (world.CrashNode(order[i], spec).ok()) downed_.push_back(order[i]);
  }
}

void CrashWaveNemesis::Heal(World& world) {
  for (NodeId id : downed_) {
    if (world.IsDown(id)) (void)world.RestartNode(id);
  }
  downed_.clear();
}

// --- hot-key migration ------------------------------------------------------

void HotKeyNemesis::Inflict(World& world, Rng& rng) {
  (void)world;
  // Any nonzero rotation; clients reduce it modulo their key space.
  offset_ = rng.Uniform(1, 1u << 20);
}

void HotKeyNemesis::Heal(World& world) {
  (void)world;
  offset_ = 0;
}

// --- catalog ----------------------------------------------------------------

std::vector<std::string> NemesisNames() {
  return {"partition",    "asym-partition", "oneway-loss", "slow-links",
          "disk-latency", "fsync-stall",    "clock-skew",  "churn",
          "crash-wave",   "hotkey"};
}

std::unique_ptr<Nemesis> MakeNemesis(const std::string& name) {
  if (name == "partition") return std::make_unique<PartitionNemesis>();
  if (name == "asym-partition") return std::make_unique<AsymPartitionNemesis>();
  if (name == "oneway-loss") return std::make_unique<OneWayLossNemesis>();
  if (name == "slow-links") return std::make_unique<SlowLinksNemesis>();
  if (name == "disk-latency") return std::make_unique<DiskLatencyNemesis>();
  if (name == "fsync-stall") return std::make_unique<FsyncStallNemesis>();
  if (name == "clock-skew") return std::make_unique<ClockSkewNemesis>();
  if (name == "churn") return std::make_unique<ChurnStormNemesis>();
  if (name == "crash-wave") return std::make_unique<CrashWaveNemesis>();
  if (name == "hotkey") return std::make_unique<HotKeyNemesis>();
  return nullptr;
}

namespace {

std::vector<std::string> MixBehaviors(const std::string& mix) {
  if (mix == "none") return {};
  if (mix == "classic") return {"partition", "crash-wave", "slow-links"};
  if (mix == "gray") return {"asym-partition", "oneway-loss", "slow-links"};
  if (mix == "disk") return {"disk-latency", "fsync-stall", "crash-wave"};
  if (mix == "clock") return {"clock-skew", "partition"};
  if (mix == "churn") return {"churn", "crash-wave"};
  if (mix == "hotkey") return {"hotkey", "partition"};
  if (mix == "all") return NemesisNames();
  return {"?"};  // sentinel: unknown mix
}

}  // namespace

std::vector<std::string> NemesisMix::KnownMixes() {
  return {"none", "classic", "gray", "disk", "clock", "churn", "hotkey",
          "all"};
}

Result<NemesisMix> NemesisMix::Make(const std::string& mix_name) {
  auto behaviors = MixBehaviors(mix_name);
  if (behaviors.size() == 1 && behaviors[0] == "?") {
    return Rejected("unknown nemesis mix: " + mix_name);
  }
  NemesisMix mix(mix_name);
  for (const auto& b : behaviors) {
    auto n = MakeNemesis(b);
    assert(n != nullptr && "catalog mismatch");
    if (b == "hotkey") mix.hotkey_ = static_cast<HotKeyNemesis*>(n.get());
    mix.nemeses_.push_back(std::move(n));
  }
  return mix;
}

NemesisMix::~NemesisMix() { Disarm(); }

void NemesisMix::Arm(World& world, const NemesisTargets& targets,
                     uint64_t seed) {
  for (size_t i = 0; i < nemeses_.size(); ++i) {
    // Independent streams: nemesis i's choices depend only on (seed, i),
    // never on what its siblings drew.
    nemeses_[i]->Arm(world, targets, Rng(Mix64(seed, 0x4e4d0 + i)));
  }
}

void NemesisMix::Disarm() {
  for (auto& n : nemeses_) n->Disarm();
}

uint64_t NemesisMix::TotalActivations() const {
  uint64_t total = 0;
  for (const auto& n : nemeses_) total += n->activations();
  return total;
}

}  // namespace recraft::harness
