#include "sm/queue_machine.h"

#include <algorithm>

namespace recraft::sm {

namespace {
size_t EventBytes(const std::string& topic, const std::string& payload) {
  return topic.size() / 4 + payload.size() + 24;
}
}  // namespace

// The body: format tag, then the fields (the topic rides in the key).
template <class Io>
void Walk(Io& io, QueueRequest& r) {
  io.Format(kQueueCommandFormat, "not a queue command body");
  io(r.op, r.client_id, r.seq, r.payload);
}

Command EncodeQueueRequest(const QueueRequest& req) {
  return Command{req.topic, codec::Encode(req)};
}

Result<QueueRequest> DecodeQueueRequest(const Command& cmd) {
  QueueRequest out;
  Status s = codec::ReadAll(Decoder(cmd.body), out);
  if (!s.ok()) return s;
  out.topic = cmd.key;
  return out;
}

/// Snapshot image: the topics in the snapshot's range, each a u64-counted
/// event queue, and every session.
struct QueueMachine::Image {
  struct Events {
    std::deque<std::string> items;

    template <class Io>
    friend void Walk(Io& io, Events& e) {
      io(codec::Long(e.items));
    }
  };
  std::map<std::string, Events> topics;
  std::map<uint64_t, Session> sessions;

  template <class Io>
  friend void Walk(Io& io, Image& img) {
    io(codec::Long(img.topics), codec::Long(img.sessions));
  }
};

CmdResult QueueMachine::Execute(const QueueRequest& req) {
  CmdResult res;
  if (!range_.Contains(req.topic)) {
    res.status = OutOfRange("topic " + req.topic + " outside " +
                            range_.ToString());
    return res;
  }
  switch (req.op) {
    case QueueOp::kEnqueue: {
      topics_[req.topic].push_back(req.payload);
      ++total_events_;
      approx_bytes_ += EventBytes(req.topic, req.payload);
      res.status = OkStatus();
      break;
    }
    case QueueOp::kDequeue: {
      auto it = topics_.find(req.topic);
      if (it == topics_.end() || it->second.empty()) {
        res.status = NotFound("queue empty: " + req.topic);
        break;
      }
      res.status = OkStatus();
      res.payload = std::move(it->second.front());
      it->second.pop_front();
      --total_events_;
      approx_bytes_ -= EventBytes(req.topic, res.payload);
      if (it->second.empty()) topics_.erase(it);
      break;
    }
    case QueueOp::kPeek:
    case QueueOp::kLen: {
      res.status = Rejected("read-only op on the apply path");
      break;
    }
  }
  return res;
}

CmdResult QueueMachine::Apply(const Command& cmd) {
  auto req = DecodeQueueRequest(cmd);
  if (!req.ok()) return {req.status(), {}};
  // Session dedup first: a retried dequeue must return the original event,
  // never pop a second one — the queue machine is where non-idempotent
  // apply semantics keep the exactly-once layer honest.
  Session* sess = nullptr;
  if (req->client_id != 0) {
    sess = &sessions_[req->client_id];
    if (req->seq != 0 && req->seq <= sess->last_seq) {
      return sess->last_result;
    }
  }
  CmdResult res = Execute(*req);
  if (sess != nullptr && req->seq != 0) {
    sess->last_seq = req->seq;
    sess->last_result = res;
  }
  return res;
}

CmdResult QueueMachine::Query(const Command& query) const {
  auto req = DecodeQueueRequest(query);
  if (!req.ok()) return {req.status(), {}};
  if (!range_.Contains(req->topic)) {
    return {OutOfRange(req->topic), {}};
  }
  auto it = topics_.find(req->topic);
  switch (req->op) {
    case QueueOp::kPeek: {
      if (it == topics_.end() || it->second.empty()) {
        return {NotFound("queue empty: " + req->topic), {}};
      }
      return {OkStatus(), it->second.front()};
    }
    case QueueOp::kLen: {
      size_t n = it == topics_.end() ? 0 : it->second.size();
      return {OkStatus(), std::to_string(n)};
    }
    default:
      return {Rejected("mutating op on the read path"), {}};
  }
}

Result<std::string> QueueMachine::SplitHint(double fraction) const {
  if (topics_.size() < 2) return Rejected("too few topics to split");
  if (fraction <= 0.0 || fraction >= 1.0) {
    return Rejected("fraction must be in (0,1)");
  }
  size_t idx =
      static_cast<size_t>(static_cast<double>(topics_.size()) * fraction);
  idx = std::min(std::max<size_t>(idx, 1), topics_.size() - 1);
  auto it = topics_.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(idx));
  return it->first;
}

SnapshotPtr QueueMachine::TakeSnapshot() const {
  return *TakeSnapshot(range_);
}

Result<SnapshotPtr> QueueMachine::TakeSnapshot(const KeyRange& sub) const {
  if (!range_.ContainsRange(sub)) {
    return Rejected("snapshot range " + sub.ToString() + " not within " +
                    range_.ToString());
  }
  Image img;
  size_t items = 0;
  for (const auto& [topic, events] : topics_) {
    if (!sub.Contains(topic)) continue;
    img.topics[topic].items = events;
    items += events.size();
  }
  img.sessions = sessions_;
  auto snap = std::make_shared<Snapshot>();
  snap->range = sub;
  snap->data = codec::Encode(img);
  snap->items = items;
  return SnapshotPtr(std::move(snap));
}

Status QueueMachine::Restore(const Snapshot& snap) {
  Image img;
  if (Status s = codec::ReadAll(Decoder(snap.data), img); !s.ok()) return s;
  std::map<std::string, std::deque<std::string>> topics;
  size_t total = 0;
  size_t bytes = 0;
  for (auto& [topic, events] : img.topics) {
    for (const auto& e : events.items) bytes += EventBytes(topic, e);
    total += events.items.size();
    topics.emplace(topic, std::move(events.items));
  }
  range_ = snap.range;
  topics_ = std::move(topics);
  sessions_ = std::move(img.sessions);
  total_events_ = total;
  approx_bytes_ = bytes;
  return OkStatus();
}

void QueueMachine::Reset(const KeyRange& range) {
  range_ = range;
  topics_.clear();
  sessions_.clear();
  total_events_ = 0;
  approx_bytes_ = 0;
}

void QueueMachine::Prune(const KeyRange& keep) {
  for (auto it = topics_.begin(); it != topics_.end();) {
    if (!keep.Contains(it->first)) {
      total_events_ -= it->second.size();
      for (const auto& e : it->second) {
        approx_bytes_ -= EventBytes(it->first, e);
      }
      it = topics_.erase(it);
    } else {
      ++it;
    }
  }
}

Status QueueMachine::Rebase(const KeyRange& range) {
  range_ = range;
  Prune(range);
  return OkStatus();
}

Status QueueMachine::RestrictRange(const KeyRange& sub) {
  if (!range_.ContainsRange(sub)) {
    return Rejected("restrict range " + sub.ToString() + " not within " +
                    range_.ToString());
  }
  return Rebase(sub);
}

Status QueueMachine::MergeIn(const Snapshot& snap) {
  if (range_.Overlaps(snap.range)) {
    return Rejected("merge ranges overlap: " + range_.ToString() + " / " +
                    snap.range.ToString());
  }
  auto merged = KeyRange::MergeAdjacent({range_, snap.range});
  if (!merged.ok()) return merged.status();
  QueueMachine other(snap.range);
  if (Status s = other.Restore(snap); !s.ok()) return s;
  range_ = *merged;
  for (auto& [topic, events] : other.topics_) {
    auto& q = topics_[topic];
    for (auto& e : events) {
      approx_bytes_ += EventBytes(topic, e);
      q.push_back(std::move(e));
      ++total_events_;
    }
  }
  // Sessions union keeping the larger last_seq per client (same rule as the
  // KV machine: the session table travels with the data).
  for (auto& [id, s] : other.sessions_) {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      sessions_.emplace(id, std::move(s));
    } else if (s.last_seq > it->second.last_seq) {
      it->second = std::move(s);
    }
  }
  return OkStatus();
}

MachineFactory QueueMachineFactory() {
  return [](const KeyRange& range) -> MachinePtr {
    return std::make_unique<QueueMachine>(range);
  };
}

}  // namespace recraft::sm
