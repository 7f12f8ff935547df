// Wire format for raft::Message over a real transport. The simulator never
// serializes (payloads travel as shared pointers); UdpTransport does. Each
// variant has an append-only tag and one field walk (common/codec.h), and
// nested consensus types walk through storage/codec.h — the WAL's walks,
// so disk and wire speak one dialect. It is also the one byte model:
// EncodedSize runs the same walks with the counting Sizer, and
// raft::MessageBytes (hence every simulated bandwidth charge) is exactly
// the length EncodeMessage writes — what UdpTransport sends, less its trace
// header and link framing.
//
// DecodeMessage treats truncation, unknown tags, out-of-range enums and
// counts the datagram could not hold as errors, never UB or an allocation
// the bytes merely claim: a datagram that passed the reliable link's
// framing can still be from a different build, or crafted. Decoded
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
