// Simulated message network. Supports per-link latency with jitter, finite
// bandwidth (size-dependent transfer delay), probabilistic drops, pairwise
// blocks, group partitions and crashed endpoints. Payloads are opaque to the
// network; the harness is the single place that casts them back to the
// protocol message type.
//
// Send/deliver is the simulator's hottest path (one per message, several per
// client op), so the per-message state is flat: handlers, crash flags and
// partition groups are dense vectors indexed by NodeId, pairwise state lives
// in hash sets of packed link keys behind an empty() check, and the traffic
// counters are pre-interned CounterSet handles. The order of RNG draws per
// Send (drop test, then jitter) is part of the determinism contract — see
// event_queue.h.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/types.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace recraft::sim {

struct NetworkOptions {
  Duration base_latency = 500;     // one-way, microseconds
  Duration jitter = 100;           // +/- uniform jitter, microseconds
  uint64_t bandwidth_bytes_per_sec = 1ULL << 30;  // 1 GiB/s
  double drop_probability = 0.0;   // uniform message loss
};

/// A delivery callback: (from, payload, bytes, ctx). Payload lifetime is
/// managed by shared ownership; handlers cast it to the protocol message
/// type. `ctx` is the sender's causal trace context, forwarded unchanged —
/// pure annotation, ignored by handlers that don't trace.
using DeliveryHandler =
    std::function<void(NodeId from, std::shared_ptr<const void> payload,
                       size_t bytes, obs::TraceCtx ctx)>;

class Network {
 public:
  Network(EventQueue& events, NetworkOptions opts, Rng rng);

  /// Register/replace the handler invoked when a message reaches `node`.
  void Register(NodeId node, DeliveryHandler handler);
  void Unregister(NodeId node);

  /// Queue a message for delivery. Applies partitions, drops, latency and
  /// bandwidth. Delivery is skipped if the destination is crashed or
  /// unregistered *at delivery time*. `ctx` rides along to the handler for
  /// causal tracing; it never affects routing, delay or the RNG stream.
  void Send(NodeId from, NodeId to, std::shared_ptr<const void> payload,
            size_t bytes, obs::TraceCtx ctx = {});

  // --- fault injection -------------------------------------------------
  void Crash(NodeId node);
  void Restart(NodeId node) {
    if (node < crashed_.size()) crashed_[node] = 0;
  }
  bool IsCrashed(NodeId node) const {
    return node < crashed_.size() && crashed_[node] != 0;
  }

  /// Block both directions between a and b.
  void Block(NodeId a, NodeId b);
  void Unblock(NodeId a, NodeId b);

  /// Block one direction only: messages from -> to are lost, to -> from
  /// still flow. This is the gray-failure primitive (a NIC that can send
  /// but not receive, an asymmetric routing blackhole).
  void BlockOneWay(NodeId from, NodeId to);
  void UnblockOneWay(NodeId from, NodeId to);

  /// Partition the world into groups; nodes in different groups cannot
  /// communicate. Nodes not mentioned in any group (clients, admin, the
  /// naming service) are unaffected and reach everyone. Replaces any
  /// previous partition.
  void SetPartitions(const std::vector<std::vector<NodeId>>& groups);
  void ClearPartitions() { partitions_active_ = false; }

  /// Heal every injected connectivity fault in one call: partitions,
  /// pairwise blocks (both kinds) and per-link latency/drop overrides.
  /// ClearPartitions alone famously does NOT clear pairwise Blocks — tests
  /// and nemeses that mean "make the network whole again" use this. The
  /// global drop_probability is configuration, not a fault, and is left
  /// untouched (reset it with set_drop_probability(0)).
  void HealAll();

  void set_drop_probability(double p) { opts_.drop_probability = p; }
  const NetworkOptions& options() const { return opts_; }

  /// Arm (non-null) or disarm (null) the flight recorder for the send,
  /// drop and deliver paths. Observation only — see obs/trace.h.
  void set_recorder(obs::Recorder* rec) { recorder_ = rec; }

  /// Override latency for a specific ordered link (one direction).
  void SetLinkLatency(NodeId from, NodeId to, Duration latency);
  void ClearLinkLatency(NodeId from, NodeId to);

  /// Override the drop probability for one ordered link (one direction);
  /// takes precedence over the global drop_probability for that link. The
  /// RNG draw order is unchanged while no override is installed, and an
  /// override of 1.0 draws nothing (loss is certain, like a block).
  void SetLinkDropProbability(NodeId from, NodeId to, double p);
  void ClearLinkDropProbability(NodeId from, NodeId to);

  // --- introspection ----------------------------------------------------
  CounterSet& counters() { return counters_; }
  const CounterSet& counters() const { return counters_; }
  bool CanCommunicate(NodeId a, NodeId b) const;
  /// Directional reachability: CanCommunicate minus one-way blocks.
  bool CanDeliver(NodeId from, NodeId to) const;
  size_t blocked_link_count() const {
    return blocked_.size() + blocked_oneway_.size();
  }
  size_t link_override_count() const {
    return link_latency_.size() + link_drop_.size();
  }

 private:
  static uint64_t PackLink(NodeId a, NodeId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }
  int32_t GroupOf(NodeId n) const {
    return n < group_of_.size() ? group_of_[n] : -1;
  }
  Duration DeliveryDelay(NodeId from, NodeId to, size_t bytes);

  EventQueue& events_;
  NetworkOptions opts_;
  Rng rng_;
  std::vector<DeliveryHandler> handlers_;        // indexed by NodeId
  std::vector<uint8_t> crashed_;                 // indexed by NodeId
  std::unordered_set<uint64_t> blocked_;         // PackLink(min, max)
  std::unordered_set<uint64_t> blocked_oneway_;  // PackLink(from, to)
  std::vector<int32_t> group_of_;                // -1 = in no group
  bool partitions_active_ = false;
  std::unordered_map<uint64_t, Duration> link_latency_;  // PackLink(from, to)
  std::unordered_map<uint64_t, double> link_drop_;       // PackLink(from, to)
  CounterSet counters_;
  obs::Recorder* recorder_ = nullptr;

  // Pre-interned handles for the per-message counters.
  struct {
    CounterSet::Id sent, bytes, delivered;
    CounterSet::Id drop_src_crashed, drop_dst_crashed;
    CounterSet::Id drop_partition, drop_oneway, drop_random;
    CounterSet::Id drop_unregistered;
  } cid_;
};

}  // namespace recraft::sim
