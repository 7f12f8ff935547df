// Wire format for raft::Message over a real transport. The simulator never
// serializes (payloads travel as shared pointers); UdpTransport does, so
// every variant gets an explicit, append-only tag here and its fields ride
// the same storage/codec encoders the WAL uses — one binary dialect for
// disk and wire. It is also the one byte model: EncodedSize runs the same
// encoder in counting mode, and raft::MessageBytes (hence every simulated
// bandwidth charge) is exactly the length EncodeMessage writes — what
// UdpTransport sends, less its trace header and link framing.
//
// DecodeMessage treats truncation and unknown tags as errors, never UB: a
// datagram that passed the reliable link's framing can still be from a
// different build, and recovery-grade paranoia is cheap. Decoded
// AppendEntries/PullReply spans are rebuilt into a fresh EntrySlab — the
// refcounted zero-copy sharing is a within-process optimization; across
// processes the bytes are the truth.
#pragma once

#include "common/codec.h"
#include "common/status.h"
#include "raft/messages.h"

namespace recraft::net {

/// Serialize `m` (tag + fields). Appends to `enc`.
void EncodeMessage(Encoder& enc, const raft::Message& m);

/// Exactly the number of bytes EncodeMessage appends for `m`, counted
/// without writing them.
size_t EncodedSize(const raft::Message& m);

/// Parse one message. Consumes exactly the bytes EncodeMessage produced.
Result<raft::MessagePtr> DecodeMessage(Decoder& dec);

}  // namespace recraft::net
