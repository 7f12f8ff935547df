// The two simulated workloads, sim_write and sim_reconfig.
//
// One repeat builds a fresh deterministic World from the seed, bootstraps
// the shards, starts the closed-loop fleet, warms up, runs the measured
// window (with the workload's disruption: a leader hard crash + WAL
// restart, or placement-driver split/merge steps), then stops the fleet,
// lets the plane settle and runs every correctness check. A run repeats
// the same seed until --seconds of wall time are used; every count and
// sim-time figure must come out identical on each repeat.
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <sstream>

#include "harness/checkers.h"
#include "harness/client.h"
#include "kv/service.h"
#include "layers.h"
#include "probes.h"
#include "shard/placement.h"
#include "sim_workloads.h"

namespace perfbench {
namespace {

constexpr uint64_t kKeySpace = 100000;
constexpr size_t kNodesPerShard = 3;
constexpr Duration kLinkLatency = 1 * kMillisecond;
// An op slower than this (sim time) counts as failed: it missed its deadline.
constexpr Duration kOpDeadline = 5 * kSecond;
// Replies the crashed leader sent just before dying still land within one
// link latency (plus jitter); completions inside this grace are not service
// by the new leader.
constexpr Duration kInFlightGrace = 3 * kMillisecond;
constexpr Duration kStep = 10 * kMillisecond;
constexpr size_t kRecorderCapacity = size_t{1} << 20;

struct SimSpec {
  size_t shards = 0;
  size_t clients = 0;
  size_t batch = 4;
  size_t value_bytes = 512;
  double get_fraction = 0;
  double scan_fraction = 0;
  Duration warmup = 0;
  Duration window = 0;
  bool crash_leader = false;   // sim_write: hard crash + WAL restart
  Duration crash_down = 1 * kSecond;
  Duration action_every = 0;   // sim_reconfig: placement step period
};

bool SpecFor(const std::string& name, SimSpec* spec) {
  if (name == "sim_write") {
    spec->shards = 4;
    spec->clients = 24;
    spec->warmup = 500 * kMillisecond;
    spec->window = 8 * kSecond;
    spec->crash_leader = true;
    return true;
  }
  if (name == "sim_reconfig") {
    spec->shards = 8;
    spec->clients = 48;
    // One op in flight per client session: with several, a merge can lose
    // an acknowledged write (METRICS.md, "Known defects").
    spec->batch = 1;
    spec->get_fraction = 0.7;
    spec->scan_fraction = 0.3;
    spec->warmup = 1 * kSecond;
    spec->window = 8 * kSecond;
    spec->action_every = 2 * kSecond;
    return true;
  }
  return false;
}

/// Everything one repeat measures. The counts and sim-time figures (all
/// that Fingerprint() prints) must repeat bit for bit for a seed.
struct Repeat {
  bool ok = true;
  std::string error;
  double setup_s = 0;
  double window_wall_s = 0;
  double rss_mb = 0;

  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t reads = 0;
  uint64_t retries = 0;
  uint64_t wrong_shard = 0;
  uint64_t refetches = 0;
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  Duration failover_us = 0;
  Duration catchup_us = 0;
  std::vector<Duration> reconfig_us;
  std::vector<Duration> blocked_us;
  uint64_t events = 0;
  uint64_t msgs = 0;
  uint64_t net_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t disk_bytes = 0;
  Duration io_busy_us = 0;
  uint64_t digest = 0;

  // Traced repeat only.
  KvLayerStats kv;
  uint64_t elections = 0;
  std::vector<Duration> election_us, split_us, merge_us, exchange_us;
  uint64_t read_rounds = 0;

  std::string Fingerprint() const {
    std::ostringstream os;
    os << "ops=" << ops << " failed=" << failed << " reads=" << reads
       << " retries=" << retries << " wrong_shard=" << wrong_shard
       << " refetches=" << refetches << " p50=" << lat_p50_us
       << " p99=" << lat_p99_us << " failover=" << failover_us
       << " catchup=" << catchup_us << " events=" << events
       << " msgs=" << msgs << " bytes=" << net_bytes << " fsyncs=" << fsyncs
       << " disk_bytes=" << disk_bytes << " io_busy=" << io_busy_us
       << " digest=" << digest << " reconfig=";
    for (Duration d : reconfig_us) os << d << ",";
    os << " blocked=";
    for (Duration d : blocked_us) os << d << ",";
    return os.str();
  }

  void Fail(const std::string& why) {
    if (ok) error = why;
    ok = false;
  }
};

struct DiskTotals {
  uint64_t flushes = 0;
  uint64_t bytes = 0;
  Duration io_busy = 0;
};

DiskTotals SumDisks(harness::World& w, NodeId max_id) {
  DiskTotals t;
  for (NodeId id = 1; id <= max_id; ++id) {
    const storage::SimDisk* d = w.NodeDisk(id);
    if (d == nullptr) continue;
    t.flushes += d->stats().flushes;
    t.bytes += d->stats().flushed_bytes;
    t.io_busy += d->stats().io_busy;
  }
  return t;
}

NodeId MaxNodeId(const harness::World& w) {
  NodeId m = 0;
  for (NodeId id : w.AllNodeIds()) m = std::max(m, id);
  return m;
}

class SimRun {
 public:
  SimRun(const SimSpec& spec, uint64_t seed, bool traced)
      : spec_(spec), seed_(seed), traced_(traced) {}

  /// setup_only: stop after the first acknowledged op (set-up samples).
  Repeat Run(bool setup_only = false);

 private:
  harness::WorldOptions MakeOptions();
  void OnOpComplete(const std::string& key, TimePoint when);
  void StepTo(TimePoint target);
  bool Settle();
  void CheckHistory();

  const SimSpec& spec_;
  const uint64_t seed_;
  const bool traced_;
  Repeat r_;

  std::unique_ptr<obs::Recorder> recorder_;
  std::unique_ptr<SpanCollector> spans_;
  std::unique_ptr<harness::World> world_;
  std::unique_ptr<harness::SafetyChecker> checker_;
  std::unique_ptr<harness::Router> router_;
  std::unique_ptr<shard::NativeRebalancer> native_;
  std::unique_ptr<TimingRebalancer> timing_;
  std::unique_ptr<shard::PlacementDriver> driver_;
  std::vector<std::unique_ptr<harness::ClosedLoopClient>> clients_;
  LatencyRecorder latency_;
  uint64_t key_offset_ = 0;

  uint64_t acked_ = 0;
  TimePoint win_start_ = 0;
  TimePoint win_end_ = 0;
  uint64_t win_ops_ = 0;
  std::set<shard::ShardId> live_last_second_;

  // sim_write crash bookkeeping.
  KeyRange crashed_range_;
  std::vector<NodeId> crashed_members_;
  NodeId crashed_node_ = kNoNode;
  TimePoint crashed_at_ = 0;
  bool failover_seen_ = false;
  TimePoint restarted_at_ = 0;
  bool catchup_pending_ = false;

  uint64_t seen_version_ = 0;
  // (uid, range) of every group that ever served data, in creation order.
  std::vector<std::pair<ClusterUid, KeyRange>> lineage_;
};

harness::WorldOptions SimRun::MakeOptions() {
  harness::WorldOptions o;
  o.seed = seed_;
  o.net.base_latency = kLinkLatency;
  o.storage = harness::StorageMode::kWal;  // default WalStorage options,
                                           // as recraftd uses
  o.node.trace_applied = true;             // the history check needs it
  if (traced_) {
    recorder_ = std::make_unique<obs::Recorder>(kRecorderCapacity);
    spans_ = std::make_unique<SpanCollector>(*recorder_);
    o.recorder = recorder_.get();
    o.node.machine_factory = TimedKvFactory(&r_.kv);
  }
  return o;
}

void SimRun::OnOpComplete(const std::string& key, TimePoint when) {
  ++acked_;
  if (driver_) driver_->RecordOp(key);
  if (router_ && router_->fetched_version() != seen_version_) {
    seen_version_ = router_->fetched_version();
    ++r_.refetches;
  }
  if (win_start_ == 0 || when < win_start_ || when >= win_end_) return;
  ++win_ops_;
  if (when + kSecond >= win_end_) {
    if (const shard::ShardInfo* s = world_->shard_map().Lookup(key)) {
      live_last_second_.insert(s->id);
    }
  }
  if (crashed_at_ != 0 && !failover_seen_ &&
      when >= crashed_at_ + kInFlightGrace && crashed_range_.Contains(key)) {
    failover_seen_ = true;
    r_.failover_us = when - crashed_at_;
  }
  if (timing_) timing_->OnOpComplete(key, when);
}

void SimRun::StepTo(TimePoint target) {
  harness::World& w = *world_;
  while (w.now() < target) {
    Duration step = catchup_pending_ ? kMillisecond : kStep;
    w.RunFor(std::min<Duration>(step, target - w.now()));
    if (spans_) spans_->Drain(false);
    if (catchup_pending_) {
      NodeId leader = w.LeaderOf(crashed_members_);
      if (leader != kNoNode && w.HasNode(crashed_node_) &&
          w.node(crashed_node_).last_applied() >=
              w.node(leader).commit_index()) {
        r_.catchup_us = w.now() - restarted_at_;
        catchup_pending_ = false;
      }
    }
  }
}

/// After the fleet stops: every shard has a leader, everything is
/// committed, and every member (the restarted one too) has applied it.
bool SimRun::Settle() {
  harness::World& w = *world_;
  return w.RunUntil(
      [&]() {
        for (const shard::ShardInfo& s : w.shard_map().Shards()) {
          NodeId l = w.LeaderOf(s.members);
          if (l == kNoNode) return false;
          Index commit = w.node(l).commit_index();
          if (commit < w.node(l).last_log_index()) return false;
          for (NodeId id : s.members) {
            if (!w.HasNode(id) || w.IsCrashed(id)) return false;
            if (w.node(id).last_applied() < commit) return false;
          }
        }
        return true;
      },
      30 * kSecond);
}

/// Replays each group's applied history in creation order (a key's owner
/// always precedes the groups its range passes to) and compares the
/// implied state with every live replica of every final shard.
void SimRun::CheckHistory() {
  harness::World& w = *world_;
  const auto& applied = checker_->applied_kv();
  std::map<ClusterUid, KeyRange> known;
  for (const auto& [uid, range] : lineage_) known.emplace(uid, range);
  for (const auto& [uid, cmds] : applied) {
    if (!cmds.empty() && known.count(uid) == 0) {
      r_.Fail("history: commands applied by unknown group " +
              std::to_string(uid));
      return;
    }
  }
  harness::KvHistoryChecker replay;
  std::map<std::string, std::string> expected;
  for (const auto& [uid, range] : lineage_) {
    auto it = applied.find(uid);
    if (it == applied.end()) continue;
    for (auto& [k, v] : replay.Replay(it->second, range)) expected[k] = v;
  }
  // Names the last write the history holds for `key`, so a failure says
  // which op the store lost or invented.
  auto last_write = [&](const std::string& key) {
    std::string where = "no write in the history";
    for (const auto& [uid, range] : lineage_) {
      auto it = applied.find(uid);
      if (it == applied.end()) continue;
      for (const kv::Command& c : it->second) {
        if (c.key != key || kv::IsReadOnly(c.op)) continue;
        where = "last written by client " + std::to_string(c.client_id) +
                " seq " + std::to_string(c.seq) + " in group " +
                std::to_string(uid);
      }
    }
    return where;
  };
  for (const shard::ShardInfo& s : w.shard_map().Shards()) {
    std::map<std::string, std::string> want;
    for (auto it = expected.lower_bound(s.range.lo());
         it != expected.end() && s.range.Contains(it->first); ++it) {
      want.insert(*it);
    }
    for (NodeId id : s.members) {
      const auto got = StoreOf(w.node(id)).Scan(
          s.range.lo(), "", std::numeric_limits<size_t>::max());
      std::map<std::string, std::string> have(got.begin(), got.end());
      if (have == want) continue;
      auto h = have.begin();
      auto e = want.begin();
      while (h != have.end() && e != want.end() && *h == *e) {
        ++h;
        ++e;
      }
      std::string key = h == have.end()                ? e->first
                        : e == want.end()              ? h->first
                        : h->first < e->first          ? h->first
                                                       : e->first;
      r_.Fail("history: node " + std::to_string(id) + " holds " +
              std::to_string(have.size()) + " keys of " + s.range.ToString() +
              ", the replayed history " + std::to_string(want.size()) +
              "; first difference at " + key + " (" +
              (have.count(key) ? "'" + have[key].substr(0, 16) + "'"
                               : std::string("absent")) +
              " vs " +
              (want.count(key) ? "'" + want[key].substr(0, 16) + "'"
                               : std::string("absent")) +
              "), " + last_write(key));
      return;
    }
  }
}

Repeat SimRun::Run(bool setup_only) {
  auto t_setup = WallClock::now();
  world_ = std::make_unique<harness::World>(MakeOptions());
  harness::World& w = *world_;
  checker_ = std::make_unique<harness::SafetyChecker>(w);
  checker_->AttachPeriodic();

  auto ids = w.BootstrapShards(
      spec_.shards, kNodesPerShard,
      shard::UniformKeyBoundaries("k", kKeySpace, spec_.shards));
  if (!ids.ok()) {
    r_.Fail("bootstrap: " + ids.status().ToString());
    return r_;
  }
  for (const shard::ShardInfo& s : w.shard_map().Shards()) {
    lineage_.emplace_back(s.uid, s.range);
  }

  if (spec_.action_every > 0) {
    native_ = std::make_unique<shard::NativeRebalancer>(w, 120 * kSecond);
    timing_ = std::make_unique<TimingRebalancer>(w, *native_);
    // The shardplane_throughput policy: every step splits the biggest
    // shard and merges the smallest adjacent pair, holding the plane
    // between N and N+2 shards.
    shard::PlacementOptions popts;
    popts.split_threshold_keys = 1;
    popts.merge_threshold_keys = std::numeric_limits<size_t>::max() / 2;
    popts.min_shards = spec_.shards;
    popts.max_shards = spec_.shards + 2;
    driver_ = std::make_unique<shard::PlacementDriver>(w, w.shard_map(),
                                                       *timing_, popts);
  }

  router_ = std::make_unique<harness::Router>(&w.shard_map());
  seen_version_ = router_->fetched_version();
  harness::ClientOptions copts;
  copts.key_space = kKeySpace;
  copts.value_bytes = spec_.value_bytes;
  copts.batch_size = spec_.batch;
  copts.get_fraction = spec_.get_fraction;
  copts.scan_fraction = spec_.scan_fraction;
  // The seed picks which keys the fleet touches, not only the timing.
  key_offset_ = Mix64(seed_, 0x6b6579) % kKeySpace;
  copts.key_offset = &key_offset_;
  copts.latency = &latency_;
  copts.recorder = recorder_.get();
  copts.on_op_complete = [this](const std::string& key, TimePoint when) {
    OnOpComplete(key, when);
  };
  for (size_t i = 0; i < spec_.clients; ++i) {
    clients_.push_back(std::make_unique<harness::ClosedLoopClient>(
        w, *router_, static_cast<NodeId>(harness::kFirstClientId + i), copts));
  }
  for (auto& c : clients_) c->Start();
  if (!w.RunUntil([&]() { return acked_ > 0; }, 10 * kSecond)) {
    r_.Fail("no op acknowledged within 10 s of sim time");
    return r_;
  }
  r_.setup_s = SecondsSince(t_setup);
  if (setup_only) return r_;

  StepTo(w.now() + spec_.warmup);

  // --- measured window ------------------------------------------------------
  win_start_ = w.now();
  win_end_ = win_start_ + spec_.window;
  if (spans_) spans_->SetWindow(win_start_, win_end_);
  latency_.Clear();
  NodeId max_id = MaxNodeId(w);
  const DiskTotals disk0 = SumDisks(w, max_id);
  const uint64_t events0 = w.events().events_executed();
  const uint64_t msgs0 = w.net().counters().Get("net.sent");
  const uint64_t bytes0 = w.net().counters().Get("net.bytes");
  uint64_t retries0 = 0, wrong0 = 0, reads0 = 0;
  for (auto& c : clients_) {
    retries0 += c->retries();
    wrong0 += c->wrong_shard_retries();
    reads0 += c->reads_done();
  }
  const uint64_t refetch0 = r_.refetches;
  if (traced_) r_.kv.collecting = true;
  auto t_window = WallClock::now();

  if (spec_.crash_leader) {
    StepTo(win_start_ + spec_.window / 2);
    auto shards = w.shard_map().Shards();
    const shard::ShardInfo& victim = shards[seed_ % shards.size()];
    crashed_members_ = victim.members;
    crashed_range_ = victim.range;
    crashed_node_ = w.LeaderOf(victim.members);
    if (crashed_node_ == kNoNode) {
      r_.Fail("crash: shard has no leader");
      return r_;
    }
    crashed_at_ = w.now();
    if (Status s = w.CrashNode(crashed_node_); !s.ok()) {
      r_.Fail("CrashNode: " + s.ToString());
      return r_;
    }
    StepTo(crashed_at_ + spec_.crash_down);
    restarted_at_ = w.now();
    if (Status s = w.RestartNode(crashed_node_); !s.ok()) {
      r_.Fail("RestartNode: " + s.ToString());
      return r_;
    }
    catchup_pending_ = true;
  }
  if (driver_) {
    for (TimePoint t = win_start_ + spec_.action_every; t < win_end_;
         t += spec_.action_every) {
      StepTo(t);
      auto report = driver_->Step();
      if (report.splits != 1 || report.merges != 1) {
        std::string why = "placement step did not split and merge:";
        for (const auto& a : report.actions) why += " " + a;
        r_.Fail(why);
        return r_;
      }
      if (Status s = w.shard_map().CheckInvariants(); !s.ok()) {
        r_.Fail("shard map invariants: " + s.ToString());
        return r_;
      }
    }
  }
  StepTo(win_end_);
  r_.window_wall_s = SecondsSince(t_window);
  if (traced_) r_.kv.collecting = false;

  // --- window accounting (exact) ------------------------------------------
  max_id = MaxNodeId(w);
  const DiskTotals disk1 = SumDisks(w, max_id);
  r_.ops = win_ops_;
  r_.events = w.events().events_executed() - events0;
  r_.msgs = w.net().counters().Get("net.sent") - msgs0;
  r_.net_bytes = w.net().counters().Get("net.bytes") - bytes0;
  r_.fsyncs = disk1.flushes - disk0.flushes;
  r_.disk_bytes = disk1.bytes - disk0.bytes;
  r_.io_busy_us = disk1.io_busy - disk0.io_busy;
  for (auto& c : clients_) {
    r_.retries += c->retries();
    r_.wrong_shard += c->wrong_shard_retries();
    r_.reads += c->reads_done();
  }
  r_.retries -= retries0;
  r_.wrong_shard -= wrong0;
  r_.reads -= reads0;
  r_.refetches -= refetch0;
  r_.lat_p50_us = Percentile(latency_.samples(), 50);
  r_.lat_p99_us = Percentile(latency_.samples(), 99);
  for (Duration d : latency_.samples()) {
    if (d > kOpDeadline) ++r_.failed;
  }
  if (timing_) {
    for (const auto& a : timing_->actions()) {
      if (!a.ok) r_.Fail("a rebalancing action failed");
      if (!a.served_after) r_.Fail("an action's key range served no op after it");
      r_.reconfig_us.push_back(a.end - a.start);
      r_.blocked_us.push_back(a.blocked);
    }
  }
  r_.digest = w.events().execution_digest();

  // --- correctness ------------------------------------------------------------
  if (r_.ops == 0) r_.Fail("no op completed in the window");
  for (const shard::ShardInfo& s : w.shard_map().Shards()) {
    if (live_last_second_.count(s.id) == 0) {
      r_.Fail("shard " + s.range.ToString() +
              " completed no op in the window's last second");
    }
  }
  if (spec_.crash_leader && !failover_seen_) {
    r_.Fail("the crashed shard never served an op again");
  }
  if (catchup_pending_) r_.Fail("the restarted node never caught up");

  for (auto& c : clients_) c->Stop();
  if (!Settle()) r_.Fail("plane did not settle after the fleet stopped");
  checker_->Observe();
  if (!checker_->ok()) r_.Fail("safety: " + checker_->Report());
  if (Status s = w.shard_map().CheckInvariants(); !s.ok()) {
    r_.Fail("shard map invariants: " + s.ToString());
  }
  if (w.shard_map().size() < spec_.shards) r_.Fail("plane shrank");
  if (timing_) {
    for (const auto& g : timing_->created()) lineage_.push_back(g);
  }
  if (r_.ok) CheckHistory();

  if (spans_) {
    spans_->Drain(true);
    if (spans_->overflowed()) r_.Fail("trace ring overflowed");
    r_.elections = spans_->Begun(obs::Name::kElection);
    r_.election_us = spans_->Ok(obs::Name::kElection);
    r_.read_rounds = spans_->Begun(obs::Name::kReadRound);
    r_.split_us = spans_->Ok(obs::Name::kSplit);
    r_.merge_us = spans_->Ok(obs::Name::kMerge);
    r_.exchange_us = spans_->Ok(obs::Name::kMergeExchange);
  }
  r_.rss_mb = PeakRssMb();
  return r_;
}

double Ms(Duration us) { return static_cast<double>(us) / 1000.0; }

double MedianMs(const std::vector<Duration>& v) { return Median(v) / 1000.0; }

}  // namespace

int RunSimWorkload(const std::string& workload, uint64_t seed, double seconds,
                   bool trace, const std::string& tmp_dir, size_t batch) {
  SimSpec spec;
  if (!SpecFor(workload, &spec)) {
    std::fprintf(stderr, "unknown sim workload %s\n", workload.c_str());
    return 2;
  }
  if (batch > 0) spec.batch = batch;
  auto t_run = WallClock::now();
  std::vector<Repeat> reps;
  std::string error;
  auto check_repeat = [&](const Repeat& r) {
    if (!r.ok) {
      error = r.error;
      return false;
    }
    if (!reps.empty() && r.Fingerprint() != reps.front().Fingerprint()) {
      error = "exact-repeat check failed: counts differ between repeats of "
              "seed " + std::to_string(seed) + "\n  first: " +
              reps.front().Fingerprint() + "\n  later: " + r.Fingerprint();
      return false;
    }
    return true;
  };

  // Untraced repeats of one seed until the wall budget is used. The first
  // repeat of a process runs on a cold heap (every page of the world is
  // faulted in fresh) and is slower than the rest, so it only warms up:
  // throughput is the median of the later repeats. It still takes part in
  // the exact-repeat check.
  const size_t min_repeats = trace ? 2 : 3;
  while (error.empty() &&
         (reps.size() < min_repeats ||
          (!trace && SecondsSince(t_run) < seconds && reps.size() < 400))) {
    Repeat r = SimRun(spec, seed, false).Run();
    if (!check_repeat(r)) break;
    reps.push_back(std::move(r));
  }
  Repeat traced;
  if (error.empty() && trace) {
    traced = SimRun(spec, seed, true).Run();
    // Arming the recorder and the kv timer must not change behaviour.
    check_repeat(traced);
  }
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n", workload.c_str(), error.c_str());
    PrintResult(false, error, reps.empty() ? 1 : reps.front().ops,
                reps.empty() ? 1 : reps.front().failed, {});
    return 1;
  }

  const Repeat& first = reps.front();
  std::vector<double> rates;
  for (size_t i = 1; i < reps.size(); ++i) {
    rates.push_back(static_cast<double>(reps[i].ops) / reps[i].window_wall_s);
  }
  const double window_sim_s = static_cast<double>(spec.window) / kSecond;
  const double ops = static_cast<double>(first.ops);

  Metrics m;
  if (!trace) {
    m["ops_per_s"] = {Median(rates), "1/s"};
    m["lat_p50_us"] = {first.lat_p50_us, "us"};
    m["lat_p99_us"] = {first.lat_p99_us, "us"};
    m["rss_mb"] = {first.rss_mb, "MB"};
  } else {
    const Repeat& t = traced;
    const double traced_rate = static_cast<double>(t.ops) / t.window_wall_s;
    const double actions = static_cast<double>(t.reconfig_us.size());
    const double wall_ns = t.window_wall_s * 1e9;
    m["sim.events_per_op"] = {Ratio(t.events, ops), "events/op"};
    m["sim.ns_per_event"] = {
        Ratio(reps.back().window_wall_s * 1e9, static_cast<double>(first.events)),
        "ns"};
    m["sim.msgs_per_op"] = {Ratio(t.msgs, ops), "msgs/op"};
    m["sim.bytes_per_op"] = {Ratio(t.net_bytes, ops), "B/op"};
    m["sim.ops_per_sim_s"] = {ops / window_sim_s, "1/s"};
    m["kv.apply_ns_p50"] = {Percentile(t.kv.apply_ns, 50), "ns"};
    m["kv.query_ns_p50"] = {Percentile(t.kv.query_ns, 50), "ns"};
    m["kv.busy_frac"] = {Ratio(static_cast<double>(t.kv.busy_ns), wall_ns),
                         "frac"};
    m["kv.snapshot_bytes_per_action"] = {
        Ratio(static_cast<double>(t.kv.snapshot_bytes), actions), "B"};
    m["kv.snapshot_ns"] = {
        Ratio(static_cast<double>(t.kv.snapshot_ns), actions), "ns"};
    m["storage.fsyncs_per_op"] = {Ratio(t.fsyncs, ops), "fsyncs/op"};
    m["storage.bytes_per_op"] = {Ratio(t.disk_bytes, ops), "B/op"};
    m["storage.io_busy_us_per_op"] = {
        Ratio(static_cast<double>(t.io_busy_us), ops), "us/op"};
    m["core.elections"] = {static_cast<double>(t.elections), "count"};
    m["core.election_ms"] = {MedianMs(t.election_us), "ms"};
    m["core.catchup_ms"] = {Ms(t.catchup_us), "ms"};
    m["core.read_rounds_per_read"] = {
        Ratio(t.read_rounds, static_cast<double>(t.reads)), "rounds/read"};
    m["core.split_ms"] = {MedianMs(t.split_us), "ms"};
    m["core.merge_ms"] = {MedianMs(t.merge_us), "ms"};
    m["core.exchange_ms"] = {MedianMs(t.exchange_us), "ms"};
    m["harness.retries_per_op"] = {Ratio(t.retries, ops), "retries/op"};
    m["harness.wrong_shard_per_op"] = {Ratio(t.wrong_shard, ops),
                                       "retries/op"};
    m["shard.refetches_per_action"] = {
        Ratio(static_cast<double>(t.refetches), actions), "count"};
    m["failover_ms"] = {Ms(t.failover_us), "ms"};
    m["reconfig_ms"] = {MedianMs(t.reconfig_us), "ms"};
    m["blocked_ms"] = {MedianMs(t.blocked_us), "ms"};
    m["trace.overhead_frac"] = {1.0 - Ratio(traced_rate, rates.back()),
                                "frac"};
    LayerProbes probes = RunLayerProbes(spec.value_bytes, tmp_dir);
    if (!probes.ok) {
      PrintResult(false, probes.error, first.ops, first.failed, {});
      return 1;
    }
    probes.AddTo(&m);
  }

  // Human-readable summary (stdout, before the result line): the
  // workload-specific exact figures are printed on every run.
  std::printf("%s seed=%llu repeats=%zu (identical counts on every repeat)\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              reps.size());
  std::printf("  sim_ops_per_sim_s %.1f 1/s\n", ops / window_sim_s);
  std::printf("  sim_lat_p50_us %.0f us  sim_lat_p99_us %.0f us\n",
              first.lat_p50_us, first.lat_p99_us);
  if (spec.crash_leader) {
    std::printf("  failover_ms %.3f ms  catchup_ms %.3f ms\n",
                Ms(first.failover_us), Ms(first.catchup_us));
  }
  if (!first.reconfig_us.empty()) {
    std::printf("  reconfig_ms %.3f ms  blocked_ms %.3f ms  (%zu actions)\n",
                MedianMs(first.reconfig_us), MedianMs(first.blocked_us),
                first.reconfig_us.size());
  }
  std::printf("  failed_frac %.6f (%llu of %llu)\n",
              Ratio(static_cast<double>(first.failed), ops),
              static_cast<unsigned long long>(first.failed),
              static_cast<unsigned long long>(first.ops));
  PrintResult(true, "", first.ops, first.failed, m);
  return 0;
}

int RunSimSetup(const std::string& workload, uint64_t seed) {
  SimSpec spec;
  if (!SpecFor(workload, &spec)) {
    std::fprintf(stderr, "unknown sim workload %s\n", workload.c_str());
    return 2;
  }
  Repeat r = SimRun(spec, seed, false).Run(/*setup_only=*/true);
  if (!r.ok) {
    std::fprintf(stderr, "%s set-up: %s\n", workload.c_str(), r.error.c_str());
    PrintResult(false, r.error, 1, 1, {});
    return 1;
  }
  PrintResult(true, "", 1, 0, {{"setup_s", {r.setup_s, "s"}}});
  return 0;
}

}  // namespace perfbench
