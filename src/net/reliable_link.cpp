#include "net/reliable_link.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace recraft::net {

namespace {

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
void StoreU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }

// DATA frame field offsets after the common header.
constexpr size_t kSeqOff = ReliableLink::kHeaderBytes;
constexpr size_t kBaseOff = kSeqOff + 8;
constexpr size_t kFlagsOff = kBaseOff + 8;

}  // namespace

ReliableLink::ReliableLink(NodeId self, uint64_t session, Options opts)
    : self_(self), session_(session), opts_(opts) {
  opts_.window = std::min<size_t>(opts_.window, 64);
  if (opts_.window == 0) opts_.window = 1;
  if (opts_.max_payload == 0) opts_.max_payload = 1200;
  if (opts_.rto_initial == 0) opts_.rto_initial = kMillisecond;
  if (opts_.max_transmissions == 0) opts_.max_transmissions = 1;
}

Result<ReliableLink::Header> ReliableLink::PeekHeader(const uint8_t* data,
                                                      size_t len) {
  if (len < kHeaderBytes) return Internal("link: short frame");
  Header h;
  if (data[0] != kData && data[0] != kAck) {
    return Internal("link: unknown frame type");
  }
  h.type = static_cast<FrameType>(data[0]);
  h.src = LoadU32(data + 1);
  h.session = LoadU64(data + 5);
  return h;
}

std::vector<uint8_t> ReliableLink::FrameChunk(uint64_t seq, uint8_t flags,
                                              const uint8_t* payload,
                                              size_t len) const {
  std::vector<uint8_t> frame(kDataHeaderBytes + len);
  frame[0] = kData;
  StoreU32(frame.data() + 1, self_);
  StoreU64(frame.data() + 5, session_);
  StoreU64(frame.data() + kSeqOff, seq);
  // The stream base is stamped at emit time — it keeps moving as acks and
  // abandonments retire older chunks.
  frame[kFlagsOff] = flags;
  std::memcpy(frame.data() + kDataHeaderBytes, payload, len);
  return frame;
}

uint64_t ReliableLink::StreamBase() const {
  if (!in_flight_.empty()) return in_flight_.begin()->first;
  if (!backlog_.empty()) return backlog_.front().first;
  return next_seq_;
}

void ReliableLink::Emit(std::vector<uint8_t>& frame, const EmitFn& emit) {
  StoreU64(frame.data() + kBaseOff, StreamBase());
  emit(frame);
}

void ReliableLink::SendMessage(const std::vector<uint8_t>& message,
                               TimePoint now, const EmitFn& emit) {
  ++counters_.messages_sent;
  size_t off = 0;
  bool first = true;
  do {
    size_t take = std::min(opts_.max_payload, message.size() - off);
    bool more = off + take < message.size();
    uint8_t flags = static_cast<uint8_t>((more ? kMoreFragments : 0) |
                                         (first ? kFirstFragment : 0));
    uint64_t seq = next_seq_++;
    backlog_.emplace_back(seq,
                          FrameChunk(seq, flags, message.data() + off, take));
    off += take;
    first = false;
  } while (off < message.size());
  TransmitFromBacklog(now, emit);
}

void ReliableLink::TransmitFromBacklog(TimePoint now, const EmitFn& emit) {
  while (!backlog_.empty() && in_flight_.size() < opts_.window) {
    auto [seq, frame] = std::move(backlog_.front());
    backlog_.pop_front();
    Chunk c;
    c.frame = std::move(frame);
    c.sent_at = now;
    c.rto = opts_.rto_initial;
    c.transmissions = 1;
    auto it = in_flight_.emplace(seq, std::move(c)).first;
    Emit(it->second.frame, emit);
    ++counters_.datagrams_sent;
  }
}

void ReliableLink::OnDatagram(const uint8_t* data, size_t len, TimePoint now,
                              const EmitFn& emit, const DeliverFn& deliver) {
  auto h = PeekHeader(data, len);
  if (!h.ok()) return;  // garbage on the wire: drop
  if (h->type == kData) {
    HandleData(data, len, h->session, emit, deliver);
  } else {
    HandleAck(data, len, h->session);
    // Acks free window space; push backlog out immediately.
    TransmitFromBacklog(now, emit);
  }
}

void ReliableLink::AdvanceTo(uint64_t new_cum) {
  if (new_cum <= cum_received_) return;
  cum_received_ = new_cum;
  // Jumping a gap invalidates whatever partial message straddled it, and
  // any buffered chunks the jump passed.
  if (collecting_ || !partial_.empty()) ++counters_.messages_skipped;
  partial_.clear();
  collecting_ = false;
  ooo_.erase(ooo_.begin(), ooo_.upper_bound(cum_received_));
  auto it = ooo_flags_.begin();
  while (it != ooo_flags_.end() && it->first <= cum_received_) {
    it = ooo_flags_.erase(it);
  }
}

void ReliableLink::HandleData(const uint8_t* data, size_t len,
                              uint64_t session, const EmitFn& emit,
                              const DeliverFn& deliver) {
  if (len < kDataHeaderBytes) return;
  if (session != peer_session_) {
    // A reborn peer starts a fresh seq space under a fresh session token;
    // honoring the old session's ordering would deadlock both sides.
    if (peer_session_ != 0) ++counters_.sessions_reset;
    peer_session_ = session;
    synced_ = false;
    cum_received_ = 0;
    collecting_ = false;
    ooo_.clear();
    ooo_flags_.clear();
    partial_.clear();
  }
  ++counters_.datagrams_received;
  uint64_t seq = LoadU64(data + kSeqOff);
  uint64_t base = LoadU64(data + kBaseOff);
  uint8_t flags = data[kFlagsOff];
  const uint8_t* payload = data + kDataHeaderBytes;
  size_t payload_len = len - kDataHeaderBytes;

  if (!synced_) {
    // First DATA of this session: join the stream at the sender's base —
    // everything below it was consumed by a previous incarnation of us (or
    // abandoned) and will never be retransmitted.
    synced_ = true;
    cum_received_ = base > 0 ? base - 1 : 0;
  } else if (base > 0 && base - 1 > cum_received_) {
    // The sender abandoned chunks we were waiting for; waiting longer would
    // wedge the stream on a gap nobody will fill.
    AdvanceTo(base - 1);
  }

  if (seq <= cum_received_ || ooo_.count(seq) != 0) {
    ++counters_.duplicates_dropped;
    SendAck(emit);  // our previous ack was likely lost; repeat it
    return;
  }
  if (seq > cum_received_ + 64) {
    // Beyond the SACK horizon: unbufferable (the ack could not describe
    // it). The sender's window should prevent this; a stray late frame
    // after a cum advance cannot reach here (it would be <= cum).
    ++counters_.out_of_window_dropped;
    SendAck(emit);
    return;
  }
  ooo_.emplace(seq, std::vector<uint8_t>(payload, payload + payload_len));
  ooo_flags_.emplace(seq, flags);
  DeliverInOrder(deliver);
  SendAck(emit);
}

void ReliableLink::DeliverInOrder(const DeliverFn& deliver) {
  auto it = ooo_.find(cum_received_ + 1);
  while (it != ooo_.end()) {
    uint64_t seq = it->first;
    uint8_t flags = ooo_flags_[seq];
    if ((flags & kFirstFragment) != 0) {
      // Defensive: a message start while a partial is open means the open
      // message's tail was lost to an abandoned gap.
      if (collecting_ && !partial_.empty()) ++counters_.messages_skipped;
      partial_.clear();
      collecting_ = true;
    }
    if (collecting_) {
      partial_.insert(partial_.end(), it->second.begin(), it->second.end());
    }
    ooo_.erase(it);
    ooo_flags_.erase(seq);
    cum_received_ = seq;
    if ((flags & kMoreFragments) == 0) {  // final fragment
      if (collecting_) {
        ++counters_.messages_delivered;
        std::vector<uint8_t> msg;
        msg.swap(partial_);
        deliver(std::move(msg));
      } else {
        // A tail whose head predates us (mid-stream join): advance past
        // it, deliver nothing — whole messages or none.
        ++counters_.messages_skipped;
      }
      collecting_ = false;
      partial_.clear();
    }
    it = ooo_.find(cum_received_ + 1);
  }
}

void ReliableLink::SendAck(const EmitFn& emit) {
  std::vector<uint8_t> frame(kHeaderBytes + 16);
  frame[0] = kAck;
  StoreU32(frame.data() + 1, self_);
  // Echo the peer's session so a reborn peer ignores acks meant for its
  // previous life.
  StoreU64(frame.data() + 5, peer_session_);
  StoreU64(frame.data() + kHeaderBytes, cum_received_);
  uint64_t sack = 0;
  for (const auto& [seq, payload] : ooo_) {
    uint64_t delta = seq - cum_received_;  // in (1, 64]
    if (delta >= 1 && delta <= 64) sack |= uint64_t{1} << (delta - 1);
  }
  StoreU64(frame.data() + kHeaderBytes + 8, sack);
  emit(frame);
  ++counters_.acks_sent;
}

void ReliableLink::HandleAck(const uint8_t* data, size_t len,
                             uint64_t session) {
  if (len < kHeaderBytes + 16) return;
  if (session != session_) return;  // ack for a previous incarnation of us
  ++counters_.acks_received;
  uint64_t cum = LoadU64(data + kHeaderBytes);
  uint64_t sack = LoadU64(data + kHeaderBytes + 8);
  // Everything at or below the cumulative point is delivered.
  in_flight_.erase(in_flight_.begin(), in_flight_.upper_bound(cum));
  // Selectively acked chunks sit in the peer's reorder buffer: stop
  // retransmitting them (they still advance only via cum, but they are
  // safe).
  for (uint64_t bit = 0; bit < 64 && sack >> bit; ++bit) {
    if ((sack >> bit) & 1) in_flight_.erase(cum + 1 + bit);
  }
}

void ReliableLink::OnTimer(TimePoint now, const EmitFn& emit) {
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    Chunk& chunk = it->second;
    if (chunk.sent_at + chunk.rto > now) {
      ++it;
      continue;
    }
    if (chunk.transmissions >= opts_.max_transmissions) {
      // The peer is gone or has moved on. Dropping the chunk advances the
      // stream base; a live receiver jumps the gap at the next DATA frame.
      ++counters_.chunks_abandoned;
      it = in_flight_.erase(it);
      continue;
    }
    ++counters_.retransmits;
    ++chunk.transmissions;
    chunk.sent_at = now;
    chunk.rto = std::min(chunk.rto * 2, std::max(kRtoMax, opts_.rto_initial));
    ++it;
  }
  // Retransmit after the abandonment sweep so every frame carries the
  // freshest stream base.
  for (auto& [seq, chunk] : in_flight_) {
    if (chunk.sent_at == now && chunk.transmissions > 1) {
      Emit(chunk.frame, emit);
    }
  }
  TransmitFromBacklog(now, emit);
}

TimePoint ReliableLink::NextDeadline() const {
  TimePoint best = 0;
  for (const auto& [seq, chunk] : in_flight_) {
    TimePoint due = chunk.sent_at + chunk.rto;
    if (best == 0 || due < best) best = due;
  }
  return best;
}

}  // namespace recraft::net
