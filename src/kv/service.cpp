#include "kv/service.h"

#include "common/codec.h"

namespace recraft::kv {

// The body: format tag, then the fields (the key rides in sm::Command).
template <class Io>
void Walk(Io& io, Command& c) {
  io.Format(kCommandFormat, "not a kv command body");
  io(c.op, c.client_id, c.seq, c.value, c.expected, c.scan_hi, c.scan_limit);
}

sm::Command EncodeCommand(const Command& cmd) {
  return sm::Command{cmd.key, codec::Encode(cmd)};
}

Result<Command> DecodeCommand(const sm::Command& cmd) {
  Command out;
  Status s = codec::ReadAll(Decoder(cmd.body), out);
  if (!s.ok()) return s;
  out.key = cmd.key;
  return out;
}

std::string EncodeScanBatch(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  const std::vector<uint8_t> bytes = codec::Encode(entries);
  return std::string(bytes.begin(), bytes.end());
}

Result<std::vector<std::pair<std::string, std::string>>> DecodeScanBatch(
    const std::string& payload) {
  std::vector<std::pair<std::string, std::string>> out;
  // A view, no copy: payload outlives the decode.
  Status s = codec::ReadAll(Decoder(payload), out);
  if (!s.ok()) return s;
  return out;
}

Response DecodeResponse(OpType op, Status status, const std::string& payload) {
  Response r;
  r.status = std::move(status);
  if (op == OpType::kScan) {
    if (r.status.ok()) {
      auto batch = DecodeScanBatch(payload);
      if (batch.ok()) {
        r.entries = std::move(*batch);
      } else {
        // A corrupt/foreign batch must not read as "empty range".
        r.status = batch.status();
      }
    }
  } else {
    r.value = payload;
  }
  return r;
}

}  // namespace recraft::kv
