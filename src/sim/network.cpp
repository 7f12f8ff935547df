#include "sim/network.h"

#include <algorithm>

#include "common/logging.h"

namespace recraft::sim {

namespace {

template <typename T>
void EnsureIndex(std::vector<T>& v, NodeId id, T fill) {
  if (id >= v.size()) v.resize(static_cast<size_t>(id) + 1, fill);
}

}  // namespace

Network::Network(EventQueue& events, NetworkOptions opts, Rng rng)
    : events_(events), opts_(opts), rng_(rng) {
  cid_.sent = counters_.Intern("net.sent");
  cid_.bytes = counters_.Intern("net.bytes");
  cid_.delivered = counters_.Intern("net.delivered");
  cid_.drop_src_crashed = counters_.Intern("net.dropped.src_crashed");
  cid_.drop_dst_crashed = counters_.Intern("net.dropped.dst_crashed");
  cid_.drop_partition = counters_.Intern("net.dropped.partition");
  cid_.drop_oneway = counters_.Intern("net.dropped.oneway");
  cid_.drop_random = counters_.Intern("net.dropped.random");
  cid_.drop_unregistered = counters_.Intern("net.dropped.unregistered");
}

void Network::Register(NodeId node, DeliveryHandler handler) {
  EnsureIndex(handlers_, node, DeliveryHandler{});
  handlers_[node] = std::move(handler);
}

void Network::Unregister(NodeId node) {
  if (node < handlers_.size()) handlers_[node] = nullptr;
}

void Network::Crash(NodeId node) {
  EnsureIndex(crashed_, node, uint8_t{0});
  crashed_[node] = 1;
}

bool Network::CanCommunicate(NodeId a, NodeId b) const {
  if (a == b) return true;
  if (!blocked_.empty() &&
      blocked_.count(PackLink(std::min(a, b), std::max(a, b))) > 0) {
    return false;
  }
  if (partitions_active_) {
    // Nodes absent from every group (admin, clients, the naming service)
    // are unaffected by the partition and reach everyone.
    int32_t ga = GroupOf(a);
    int32_t gb = GroupOf(b);
    if (ga >= 0 && gb >= 0 && ga != gb) return false;
  }
  return true;
}

bool Network::CanDeliver(NodeId from, NodeId to) const {
  if (!CanCommunicate(from, to)) return false;
  return blocked_oneway_.empty() ||
         blocked_oneway_.count(PackLink(from, to)) == 0;
}

Duration Network::DeliveryDelay(NodeId from, NodeId to, size_t bytes) {
  Duration base;
  bool overridden = false;
  if (!link_latency_.empty()) {
    auto it = link_latency_.find(PackLink(from, to));
    if (it != link_latency_.end()) {
      base = it->second;
      overridden = true;
    }
  }
  if (!overridden) {
    if (from == to) {
      constexpr Duration kLoopbackLatency = 10;
      base = kLoopbackLatency;
    } else {
      base = opts_.base_latency;
      if (opts_.jitter > 0) base += rng_.Uniform(0, 2 * opts_.jitter);
    }
  }
  Duration transfer = 0;
  if (opts_.bandwidth_bytes_per_sec > 0) {
    transfer = static_cast<Duration>(static_cast<double>(bytes) /
                                     static_cast<double>(opts_.bandwidth_bytes_per_sec) *
                                     static_cast<double>(kSecond));
  }
  return base + transfer;
}

void Network::Send(NodeId from, NodeId to, std::shared_ptr<const void> payload,
                   size_t bytes, obs::TraceCtx ctx) {
  counters_.Add(cid_.sent);
  counters_.Add(cid_.bytes, bytes);
  if (recorder_ != nullptr) {
    recorder_->Emit(from, obs::Name::kNetSend, ctx, to, bytes);
  }
  if (IsCrashed(from)) {
    counters_.Add(cid_.drop_src_crashed);
    if (recorder_ != nullptr) {
      recorder_->Emit(from, obs::Name::kNetDropSrcCrashed, ctx, to, bytes);
    }
    return;
  }
  if (!CanCommunicate(from, to)) {
    counters_.Add(cid_.drop_partition);
    if (recorder_ != nullptr) {
      recorder_->Emit(from, obs::Name::kNetDropPartition, ctx, to, bytes);
    }
    return;
  }
  if (!blocked_oneway_.empty() &&
      blocked_oneway_.count(PackLink(from, to)) > 0) {
    counters_.Add(cid_.drop_oneway);
    if (recorder_ != nullptr) {
      recorder_->Emit(from, obs::Name::kNetDropOneWay, ctx, to, bytes);
    }
    return;
  }
  double drop_p = opts_.drop_probability;
  bool drop_overridden = false;
  if (!link_drop_.empty()) {
    auto it = link_drop_.find(PackLink(from, to));
    if (it != link_drop_.end()) {
      drop_p = it->second;
      drop_overridden = true;
    }
  }
  if (drop_p > 0 && from != to) {
    // A per-link override of 1.0 is certain loss: skip the draw so arming
    // and disarming total one-way loss cannot perturb the RNG stream.
    if ((drop_overridden && drop_p >= 1.0) || rng_.Chance(drop_p)) {
      counters_.Add(cid_.drop_random);
      if (recorder_ != nullptr) {
        recorder_->Emit(from, obs::Name::kNetDropRandom, ctx, to, bytes);
      }
      return;
    }
  }
  Duration delay = DeliveryDelay(from, to, bytes);
  events_.Schedule(delay, [this, from, to, payload = std::move(payload),
                           bytes, ctx]() {
    if (IsCrashed(to)) {
      counters_.Add(cid_.drop_dst_crashed);
      if (recorder_ != nullptr) {
        recorder_->Emit(to, obs::Name::kNetDropDstCrashed, ctx, from, bytes);
      }
      return;
    }
    // Re-check reachability at delivery time: a partition or one-way block
    // raised while the message was in flight also loses it (conservative,
    // like TCP resets).
    if (!CanDeliver(from, to)) {
      counters_.Add(cid_.drop_partition);
      if (recorder_ != nullptr) {
        recorder_->Emit(to, obs::Name::kNetDropPartition, ctx, from, bytes);
      }
      return;
    }
    if (to >= handlers_.size() || !handlers_[to]) {
      counters_.Add(cid_.drop_unregistered);
      if (recorder_ != nullptr) {
        recorder_->Emit(to, obs::Name::kNetDropUnregistered, ctx, from,
                        bytes);
      }
      return;
    }
    counters_.Add(cid_.delivered);
    if (recorder_ != nullptr) {
      recorder_->Emit(to, obs::Name::kNetDeliver, ctx, from, bytes);
    }
    handlers_[to](from, payload, bytes, ctx);
  });
}

void Network::Block(NodeId a, NodeId b) {
  blocked_.insert(PackLink(std::min(a, b), std::max(a, b)));
}

void Network::Unblock(NodeId a, NodeId b) {
  blocked_.erase(PackLink(std::min(a, b), std::max(a, b)));
}

void Network::BlockOneWay(NodeId from, NodeId to) {
  blocked_oneway_.insert(PackLink(from, to));
}

void Network::UnblockOneWay(NodeId from, NodeId to) {
  blocked_oneway_.erase(PackLink(from, to));
}

void Network::HealAll() {
  partitions_active_ = false;
  blocked_.clear();
  blocked_oneway_.clear();
  link_latency_.clear();
  link_drop_.clear();
}

void Network::SetPartitions(const std::vector<std::vector<NodeId>>& groups) {
  std::fill(group_of_.begin(), group_of_.end(), -1);
  int32_t g = 0;
  for (const auto& group : groups) {
    for (NodeId n : group) {
      EnsureIndex(group_of_, n, int32_t{-1});
      group_of_[n] = g;
    }
    ++g;
  }
  partitions_active_ = true;
}

void Network::SetLinkLatency(NodeId from, NodeId to, Duration latency) {
  link_latency_[PackLink(from, to)] = latency;
}

void Network::ClearLinkLatency(NodeId from, NodeId to) {
  link_latency_.erase(PackLink(from, to));
}

void Network::SetLinkDropProbability(NodeId from, NodeId to, double p) {
  link_drop_[PackLink(from, to)] = p;
}

void Network::ClearLinkDropProbability(NodeId from, NodeId to) {
  link_drop_.erase(PackLink(from, to));
}

}  // namespace recraft::sim
