// Workload clients and the map-driven range router.
//
// The Router is the client-side cache of the shard map: in map-driven mode
// it copies the World-hosted authority (the etcd-overlay stand-in) and
// refetches when a reply proves the copy stale — a kWrongShard rejection,
// or a successful reply whose serving range/epoch disagree with the cached
// entry — and when a round times out. The legacy manual mode (SetClusters/UpdateCluster) remains for
// tests and benches that steer routing by hand.
//
// ClosedLoopClient keeps a bounded round of outstanding requests (one per
// round by default, as in the paper's etcd benchmark clients); rounds with
// batch_size > 1 are grouped per shard so ops to the same group go out
// back-to-back. Each slot of a round is its own kv session, so a session
// never has two commands in flight. Retries preserve sequence numbers, so
// the session layer deduplicates re-executions.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "harness/world.h"
#include "shard/shard_map.h"

namespace recraft::harness {

/// The overlay's view of the sharded key space.
class Router {
 public:
  struct Entry {
    std::vector<NodeId> members;
    KeyRange range;
    NodeId leader_hint = kNoNode;
    size_t rotate = 0;  // round-robin cursor when no hint is known
    uint32_t epoch = 0;
    shard::ShardId shard = shard::kNoShard;
  };

  Router() = default;
  /// Map-driven mode: cache `authority` (usually World::shard_map()) and
  /// refetch from it on demand.
  explicit Router(const shard::ShardMap* authority) : authority_(authority) {
    Refetch();
  }

  void SetClusters(std::vector<Entry> clusters) {
    clusters_ = std::move(clusters);
  }
  /// Replace the entry covering `range` (after a split/merge completes).
  void UpdateCluster(const KeyRange& range, std::vector<NodeId> members);

  Entry* Resolve(const std::string& key);

  /// Re-copy from the authority, preserving leader hints of unchanged
  /// shards. Returns true when a newer map version was installed; always
  /// false in manual mode.
  bool Refetch();
  uint64_t fetched_version() const { return fetched_version_; }

  size_t NumClusters() const { return clusters_.size(); }
  const std::vector<Entry>& clusters() const { return clusters_; }

 private:
  const shard::ShardMap* authority_ = nullptr;
  uint64_t fetched_version_ = 0;
  std::vector<Entry> clusters_;
};

struct ClientOptions {
  uint64_t key_space = 100000;
  size_t value_bytes = 512;       // the paper uses 512 B requests
  std::string key_prefix = "k";
  Duration retry_timeout = 1 * kSecond;
  double get_fraction = 0.0;      // paper evaluates writes
  /// Fractions of the remaining (non-get) ops issued as bounded range
  /// reads and compare-and-swaps. Gets and scans use the leader's
  /// ReadIndex path (no log entry) unless reads_via_log is set.
  double scan_fraction = 0.0;
  double cas_fraction = 0.0;
  uint32_t scan_limit = 8;
  /// Zipfian key skew (YCSB-style): 0 = uniform; theta in (0,1), e.g. 0.99
  /// concentrates most traffic on a few hot keys.
  double zipf_theta = 0.0;
  /// When set, the drawn key rank is rotated by *key_offset (mod key_space)
  /// before naming the key. The hot-key-migration nemesis points every
  /// client here and rewrites the offset live, moving the Zipfian hot set
  /// around the key space without touching client RNG streams.
  const uint64_t* key_offset = nullptr;
  /// Legacy read path: route gets/scans through the log as commands.
  bool reads_via_log = false;
  /// Requests issued per round, grouped per shard; each slot of the round is
  /// its own kv session. 1 = classic closed loop.
  size_t batch_size = 1;
  /// Record a completion into this series (shared across clients for the
  /// throughput-over-time figures). May be null.
  ThroughputSeries* throughput = nullptr;
  LatencyRecorder* latency = nullptr;  // may be null; per-client otherwise
  /// Invoked on every completed op, e.g. to bucket throughput per
  /// subcluster by key (Figs. 7a/8a) or feed the placement driver's load
  /// accounting.
  std::function<void(const std::string& key, TimePoint when)> on_op_complete;
  /// Armed flight recorder: every issued op gets a trace id and a
  /// client.op span, and requests carry the causal context into the
  /// cluster. Null = disarmed (no trace ids are drawn). Observation only.
  obs::Recorder* recorder = nullptr;
};

/// A closed-loop client: issues one round of requests, waits for all
/// replies (retrying on timeouts, leader changes and stale routing), then
/// issues the next round.
class ClosedLoopClient {
 public:
  ClosedLoopClient(World& world, Router& router, NodeId id, ClientOptions opts);
  ~ClosedLoopClient();

  void Start();
  void Stop() { running_ = false; }

  uint64_t ops_done() const { return ops_done_; }
  uint64_t reads_done() const { return reads_done_; }
  uint64_t retries() const { return retries_; }
  /// Retries caused specifically by stale routing (kWrongShard or a command
  /// applied outside the executing group's range).
  uint64_t wrong_shard_retries() const { return wrong_shard_retries_; }
  const LatencyRecorder& latency() const { return latency_; }

 private:
  struct PendingOp {
    kv::Command cmd;
    uint64_t req_id = 0;     // of the latest transmission
    TimePoint issued_at = 0;
    bool done = false;
    uint64_t trace_id = 0;   // flight-recorder causality (0 when disarmed)
    uint64_t span = 0;       // open client.op span
    uint32_t attempts = 0;
  };

  void IssueNext();
  void SendOp(size_t idx);
  void ScheduleResend(size_t idx, Duration delay);
  void ArmRoundTimeout();
  void OnReply(const raft::ClientReply& reply);
  void OnRoundTimeout(uint64_t generation);
  void CompleteOp(PendingOp& op, const raft::ClientReply& reply);

  World& world_;
  Router& router_;
  const NodeId id_;
  ClientOptions opts_;
  Rng rng_;
  bool running_ = false;

  uint64_t NextKey();

  uint64_t next_seq_ = 1;
  uint64_t generation_ = 0;  // bumped per round; invalidates stale events
  std::vector<PendingOp> round_;
  size_t round_open_ = 0;
  // Zipfian generator state (Gray et al.), precomputed when zipf_theta > 0.
  double zipf_zetan_ = 0.0;
  double zipf_eta_ = 0.0;
  double zipf_alpha_ = 0.0;

  uint64_t ops_done_ = 0;
  uint64_t reads_done_ = 0;
  uint64_t retries_ = 0;
  uint64_t wrong_shard_retries_ = 0;
  LatencyRecorder latency_;
  /// Liveness token: scheduled events hold a weak_ptr so they become no-ops
  /// when the client is destroyed before they fire.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

/// A fleet of closed-loop clients sharing a router and a throughput series.
class ClientFleet {
 public:
  ClientFleet(World& world, Router& router, size_t n, ClientOptions opts);

  void Start();
  void Stop();
  uint64_t TotalOps() const;
  uint64_t TotalReads() const;
  uint64_t TotalWrongShardRetries() const;
  /// Pooled latency across all clients.
  LatencyRecorder PooledLatency() const;
  ThroughputSeries& throughput() { return throughput_; }

 private:
  ThroughputSeries throughput_;
  std::vector<std::unique_ptr<ClosedLoopClient>> clients_;
};

}  // namespace recraft::harness
