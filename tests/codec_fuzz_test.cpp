// Bytes from a socket or a disk are untrusted: every decoder must turn any
// input into a value or an error — never an exception, an abort or a
// sanitizer report. Seeded mutations of every golden fixture
// (tests/codec_fixtures.h) go through the public decoders, plus hand-built
// inputs for the two defect classes that once crashed: a count larger
// than the input could hold, and an out-of-range enum byte.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>

#include "storage/codec.h"
#include "tests/codec_fixtures.h"

namespace recraft {
namespace {

using fixtures::Bytes;

// Little-endian builder for hand-made inputs.
struct Build {
  Bytes b;
  Build& u8(uint8_t v) {
    b.push_back(v);
    return *this;
  }
  Build& le(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      b.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    return *this;
  }
  Build& u32(uint32_t v) { return le(v, 4); }
  Build& u64(uint64_t v) { return le(v, 8); }
  Build& str(const std::string& s) {
    u32(static_cast<uint32_t>(s.size()));
    b.insert(b.end(), s.begin(), s.end());
    return *this;
  }
};

bool MessageDecodes(const Bytes& in) {
  Decoder dec(in);
  return net::DecodeMessage(dec).ok();
}

bool KvSnapshotRestores(const Bytes& in) {
  sm::Snapshot snap;
  snap.data = in;
  kv::KvMachine m(KeyRange::Full());
  return m.Restore(snap).ok();
}

bool QueueSnapshotRestores(const Bytes& in) {
  sm::Snapshot snap;
  snap.data = in;
  sm::QueueMachine m(KeyRange::Full());
  return m.Restore(snap).ok();
}

TEST(UntrustedInput, InflatedCountsAreRejectedWithoutAllocating) {
  constexpr uint32_t kHuge32 = 0xffffffffu;
  constexpr uint64_t kHuge64 = ~0ull;
  struct Case {
    const char* name;
    Bytes bytes;
    std::function<bool(const Bytes&)> decodes;
  };
  const std::vector<Case> cases = {
      {"AppendEntries.entries",
       Build().u8(3).u64(1).u32(1).u64(0).u64(0).u32(kHuge32).b,
       MessageDecodes},
      {"PullReply.entries", Build().u8(9).u32(1).u32(1).u32(kHuge32).b,
       MessageDecodes},
      {"NamingLookupReply.clusters", Build().u8(28).u32(kHuge32).b,
       MessageDecodes},
      {"ConfigState.members (BootstrapReq.genesis)",
       Build().u8(24).u32(1).u64(1).u8(0).u32(kHuge32).b, MessageDecodes},
      {"kv scan batch",
       Build().u32(kHuge32).b,
       [](const Bytes& in) {
         return kv::DecodeScanBatch(std::string(in.begin(), in.end())).ok();
       }},
      {"kv snapshot data", Build().str("").str("").u8(1).u64(kHuge64).b,
       KvSnapshotRestores},
      {"kv snapshot sessions",
       Build().str("").str("").u8(1).u64(0).u64(kHuge64).b,
       KvSnapshotRestores},
      {"queue snapshot topics", Build().u64(kHuge64).b, QueueSnapshotRestores},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    bool ok = true;
    EXPECT_NO_THROW(ok = c.decodes(c.bytes));
    EXPECT_FALSE(ok);
  }
}

TEST(UntrustedInput, SessionStatusCodesAreChecked) {
  // One session, no data: the status code byte sits right after the
  // session's id and last_seq.
  kv::Snapshot kv_snap;
  kv_snap.sessions[1] = kv::Session{2, {OkStatus(), ""}};
  Bytes kv_bytes = kv_snap.Serialize();
  ASSERT_EQ(kv_bytes.size(), 46u);
  ASSERT_TRUE(KvSnapshotRestores(kv_bytes));
  kv_bytes[41] = 0xff;
  EXPECT_FALSE(KvSnapshotRestores(kv_bytes));

  sm::QueueMachine q(KeyRange::Full());
  sm::QueueRequest deq;
  deq.op = sm::QueueOp::kDequeue;
  deq.topic = "t";
  deq.client_id = 1;
  deq.seq = 2;
  (void)q.Apply(sm::EncodeQueueRequest(deq));
  Bytes q_bytes = q.TakeSnapshot()->data;
  ASSERT_EQ(q_bytes.size(), 37u);
  ASSERT_TRUE(QueueSnapshotRestores(q_bytes));
  q_bytes[32] = 0xff;
  EXPECT_FALSE(QueueSnapshotRestores(q_bytes));
}

// --- seeded mutation fuzz --------------------------------------------------

void PutLe(Bytes* b, size_t at, uint64_t v, size_t width) {
  for (size_t i = 0; i < width && at + i < b->size(); ++i) {
    (*b)[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

Bytes Mutate(Bytes b, std::mt19937_64& rng) {
  auto pick = [&rng](size_t n) { return n == 0 ? 0 : rng() % n; };
  switch (rng() % 6) {
    case 0:  // bit flips
      for (int i = 0, n = 1 + static_cast<int>(rng() % 3); i < n && !b.empty();
           ++i) {
        b[pick(b.size())] ^= static_cast<uint8_t>(1u << (rng() % 8));
      }
      break;
    case 1: {  // byte overwrite
      static const uint8_t kBytes[] = {0x00, 0x01, 0x7f, 0x80, 0xff};
      if (!b.empty()) {
        b[pick(b.size())] = rng() % 2 ? kBytes[rng() % 5]
                                      : static_cast<uint8_t>(rng());
      }
      break;
    }
    case 2:  // inflated u32 count or length
      PutLe(&b, pick(b.size()), rng() % 2 ? 0xffffffffu : 0x7fffffffu, 4);
      break;
    case 3:  // inflated u64 count
      PutLe(&b, pick(b.size()), rng() % 2 ? ~0ull : (1ull << 40), 8);
      break;
    case 4:  // truncation
      b.resize(pick(b.size()));
      break;
    default:  // appended bytes
      for (int i = 0, n = 1 + static_cast<int>(rng() % 16); i < n; ++i) {
        b.push_back(static_cast<uint8_t>(rng()));
      }
      break;
  }
  return b;
}

// A WAL file of one record: mutate the record body and frame it again with
// a valid length and CRC, so the mutation reaches the record decoder
// instead of stopping at the torn-tail check.
Bytes MutateWalRecord(const Bytes& framed, std::mt19937_64& rng) {
  constexpr size_t kHeader = 8;
  if (framed.size() <= kHeader) return Mutate(framed, rng);
  Bytes body = Mutate(Bytes(framed.begin() + kHeader, framed.end()), rng);
  Bytes out(kHeader);
  PutLe(&out, 0, body.size(), 4);
  PutLe(&out, 4, storage::Crc32(body), 4);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

TEST(CodecFuzz, MutatedFixturesDecodeOrFailCleanly) {
  constexpr int kRounds = 2000;
  std::mt19937_64 rng(0x5eed);
  size_t decoded = 0;
  size_t rejected = 0;
  for (const fixtures::Fixture& f : fixtures::AllFixtures()) {
    SCOPED_TRACE(f.name);
    const bool wal_record = f.name.rfind("wal.", 0) == 0;
    for (int round = 0; round < kRounds; ++round) {
      Bytes in = wal_record && rng() % 2 ? MutateWalRecord(f.bytes, rng)
                                         : Mutate(f.bytes, rng);
      std::optional<Bytes> once;
      ASSERT_NO_THROW(once = f.reencode(in)) << fixtures::Hex(in);
      if (!once) {
        ++rejected;
        continue;
      }
      ++decoded;
      // Whatever decodes re-encodes to a fixed point: the value read is
      // one the encoder can write back exactly.
      std::optional<Bytes> twice;
      ASSERT_NO_THROW(twice = f.reencode(*once)) << fixtures::Hex(in);
      ASSERT_TRUE(twice.has_value()) << fixtures::Hex(in);
      EXPECT_EQ(fixtures::Hex(*twice), fixtures::Hex(*once))
          << fixtures::Hex(in);
    }
  }
  // Both outcomes occur: the mutations reach past the first check.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace recraft
