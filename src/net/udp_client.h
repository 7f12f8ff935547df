// Synchronous KV client over UdpTransport — the client half of the
// real-process deployment mode. One KvClient = one client identity: its
// own UDP socket (bound ephemerally; servers learn the reply address from
// the first datagram), its own kv session (client_id/seq dedup, so retried
// writes apply exactly once), and a blocking Do() that drives a private
// poll loop until the reply arrives or the deadline passes.
//
// Leader routing: Do() remembers which node last answered as leader,
// follows kNotLeader leader hints, and rotates through the phonebook on
// per-attempt timeouts — the retry loop every Raft client ends up writing.
//
// recraft-cli and bench/net_loopback both sit on this; load generators run
// one KvClient per logical client (each is single-threaded and
// self-contained, so a thread per client composes safely).
//
// Lives under the src/net/udp_ determinism-gate exemption (sockets, real
// clock) like the transport it wraps.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "kv/service.h"
#include "net/phonebook.h"
#include "net/udp_clock.h"
#include "net/udp_transport.h"

namespace recraft::net {

class KvClient {
 public:
  /// `client_id` must not collide with any server id in `book` (servers
  /// key reliable links by peer id). `book` lists the cluster to talk to.
  KvClient(NodeId client_id, Phonebook book);

  /// Socket state; a failed bind makes every Do() return it.
  const Status& status() const { return transport_->status(); }

  /// Execute one op. Writes get this session's client_id/seq stamped
  /// (unless the caller pre-set them) and are retried — across leader
  /// changes — until acked or `timeout` elapses; the dedup session makes
  /// the retries exactly-once. Reads retry the same way but carry no
  /// session (they never mutate).
  kv::Response Do(kv::Command cmd, Duration timeout = 5 * kSecond);

  /// The node that served the last successful op (kNoNode before any).
  NodeId last_leader() const { return leader_; }

  NodeId id() const { return self_; }
  MetricRegistry& metrics() { return metrics_; }

 private:
  void Pump(int timeout_ms);

  NodeId self_;
  Phonebook book_;
  std::vector<NodeId> targets_;
  MetricRegistry metrics_;
  SystemClock clock_;
  std::unique_ptr<UdpTransport> transport_;

  uint64_t next_req_ = 0;
  uint64_t next_seq_ = 0;
  NodeId leader_ = kNoNode;
  std::map<uint64_t, raft::ClientReply> replies_;
};

}  // namespace recraft::net
