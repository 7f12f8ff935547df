#include "net/udp_client.h"

#include <poll.h>

#include <algorithm>

namespace recraft::net {

KvClient::KvClient(NodeId client_id, Phonebook book)
    : self_(client_id), book_(std::move(book)) {
  targets_ = book_.ids();
  // If the phonebook also lists us (a client with a fixed port), don't try
  // to talk to ourselves.
  targets_.erase(std::remove(targets_.begin(), targets_.end(), self_),
                 targets_.end());
  transport_ =
      std::make_unique<UdpTransport>(self_, book_, &clock_, &metrics_);
  transport_->Bind(self_, [this](NodeId, const raft::Message& m,
                                 obs::TraceCtx) {
    if (const auto* reply = std::get_if<raft::ClientReply>(&m)) {
      replies_[reply->req_id] = *reply;
      // Late duplicates for already-consumed req_ids land here and are
      // never looked up again; req_ids are monotone, oldest is stalest.
      while (replies_.size() > 1024) replies_.erase(replies_.begin());
    }
  });
}

void KvClient::Pump(int timeout_ms) {
  pollfd p{};
  p.fd = transport_->fd();
  p.events = POLLIN;
  // Wake for the earlier of the caller's budget and a link retransmission.
  TimePoint dl = transport_->NextDeadline();
  if (dl != 0) {
    TimePoint now = clock_.Now();
    uint64_t ms = dl <= now ? 0 : (dl - now + 999) / 1000;
    if (ms < static_cast<uint64_t>(timeout_ms)) {
      timeout_ms = static_cast<int>(ms);
    }
  }
  poll(&p, 1, timeout_ms);
  if ((p.revents & POLLIN) != 0) transport_->OnReadable();
  transport_->OnTimer();
  clock_.RunDue();
}

kv::Response KvClient::Do(kv::Command cmd, Duration timeout) {
  kv::Response out;
  if (!transport_->status().ok()) {
    out.status = transport_->status();
    return out;
  }
  if (targets_.empty()) {
    out.status = Unavailable("kv-client: empty phonebook");
    return out;
  }

  bool read_only = kv::IsReadOnly(cmd.op);
  if (!read_only && cmd.client_id == 0) {
    cmd.client_id = self_;
    cmd.seq = ++next_seq_;
  }
  kv::OpType op = cmd.op;

  uint64_t req_id = ++next_req_;
  raft::ClientRequest req;
  req.req_id = req_id;
  req.from = self_;
  if (read_only) {
    req.body = raft::ReadRequest{kv::EncodeCommand(cmd)};
  } else {
    req.body = kv::EncodeCommand(cmd);
  }
  raft::MessagePtr msg = raft::MakeMessage(std::move(req));

  size_t target_ix = 0;
  if (leader_ != kNoNode) {
    auto it = std::find(targets_.begin(), targets_.end(), leader_);
    if (it != targets_.end()) {
      target_ix = static_cast<size_t>(it - targets_.begin());
    }
  }

  TimePoint deadline = clock_.Now() + timeout;
  for (;;) {
    NodeId target = targets_[target_ix];
    transport_->Send(self_, target, msg);

    constexpr Duration kAttemptTimeout = 250 * kMillisecond;
    TimePoint attempt_deadline =
        std::min(deadline, clock_.Now() + kAttemptTimeout);
    bool move_on = false;  // rotate targets at attempt end
    while (!move_on && clock_.Now() < attempt_deadline) {
      Pump(/*timeout_ms=*/10);
      auto it = replies_.find(req_id);
      if (it == replies_.end()) continue;
      raft::ClientReply reply = std::move(it->second);
      replies_.erase(it);
      switch (reply.status.code()) {
        case Code::kNotLeader:
          if (reply.leader_hint != kNoNode && reply.leader_hint != target) {
            auto hit = std::find(targets_.begin(), targets_.end(),
                                 reply.leader_hint);
            if (hit != targets_.end()) {
              target_ix = static_cast<size_t>(hit - targets_.begin());
              move_on = true;  // resend to the hinted leader right away
              continue;
            }
          }
          move_on = true;  // no usable hint: rotate
          target_ix = (target_ix + 1) % targets_.size();
          continue;
        case Code::kBusy:
        case Code::kTimeout:
        case Code::kUnavailable:
          // Transient on that node (e.g. mid-election); let the attempt
          // window expire, then retry — same req_id, same kv seq, so the
          // dedup session absorbs any double-apply.
          continue;
        default:
          leader_ = target;
          return kv::DecodeResponse(op, reply.status, reply.value);
      }
    }
    if (clock_.Now() >= deadline) {
      replies_.erase(req_id);
      out.status = Timeout("kv-client: no reply within deadline");
      return out;
    }
    if (!move_on) {
      leader_ = kNoNode;
      target_ix = (target_ix + 1) % targets_.size();
    }
  }
}

}  // namespace recraft::net
