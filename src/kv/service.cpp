#include "kv/service.h"

#include "common/codec.h"

namespace recraft::kv {

sm::Command EncodeCommand(const Command& cmd) {
  sm::Command out;
  out.key = cmd.key;
  Encoder enc;
  enc.PutU8(kCommandFormat);
  enc.PutU8(static_cast<uint8_t>(cmd.op));
  enc.PutU64(cmd.client_id);
  enc.PutU64(cmd.seq);
  enc.PutString(cmd.value);
  enc.PutString(cmd.expected);
  enc.PutString(cmd.scan_hi);
  enc.PutU32(cmd.scan_limit);
  out.body = enc.Take();
  return out;
}

Result<Command> DecodeCommand(const sm::Command& cmd) {
  Decoder dec(cmd.body);
  auto fmt = dec.GetU8();
  if (!fmt.ok()) return fmt.status();
  if (*fmt != kCommandFormat) return Rejected("not a kv command body");
  auto op = dec.GetU8();
  if (!op.ok()) return op.status();
  if (*op > static_cast<uint8_t>(OpType::kScan)) {
    return Internal("kv: bad OpType");
  }
  Command out;
  out.op = static_cast<OpType>(*op);
  out.key = cmd.key;
  auto client = dec.GetU64();
  if (!client.ok()) return client.status();
  out.client_id = *client;
  auto seq = dec.GetU64();
  if (!seq.ok()) return seq.status();
  out.seq = *seq;
  auto value = dec.GetString();
  if (!value.ok()) return value.status();
  out.value = std::move(*value);
  auto expected = dec.GetString();
  if (!expected.ok()) return expected.status();
  out.expected = std::move(*expected);
  auto hi = dec.GetString();
  if (!hi.ok()) return hi.status();
  out.scan_hi = std::move(*hi);
  auto limit = dec.GetU32();
  if (!limit.ok()) return limit.status();
  out.scan_limit = *limit;
  return out;
}

std::string EncodeScanBatch(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(entries.size()));
  for (const auto& [k, v] : entries) {
    enc.PutString(k);
    enc.PutString(v);
  }
  auto bytes = enc.Take();
  return std::string(bytes.begin(), bytes.end());
}

Result<std::vector<std::pair<std::string, std::string>>> DecodeScanBatch(
    const std::string& payload) {
  Decoder dec(payload);  // view, no copy: payload outlives the decode
  auto n = dec.GetU32();
  if (!n.ok()) return n.status();
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    auto k = dec.GetString();
    if (!k.ok()) return k.status();
    auto v = dec.GetString();
    if (!v.ok()) return v.status();
    out.emplace_back(std::move(*k), std::move(*v));
  }
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
