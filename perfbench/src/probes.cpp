#include "probes.h"

#include <filesystem>
#include <memory>
#include <vector>

#include "common/codec.h"
#include "common/metrics.h"
#include "kv/kv_machine.h"
#include "kv/service.h"
#include "net/phonebook.h"
#include "net/udp_clock.h"
#include "net/udp_transport.h"
#include "net/wire.h"
#include "raft/entry_slab.h"
#include "raft/messages.h"
#include "storage/file_disk.h"

namespace perfbench {
namespace {

using namespace recraft;  // NOLINT: benchmark-local convenience

constexpr int kRttRounds = 2000;
constexpr int kCodecRounds = 20000;
constexpr int kFsyncRounds = 200;
constexpr int kKvOps = 20000;

// Keeps the timed calls' results observable so none is optimized away.
volatile size_t g_sink = 0;

kv::Command WorkloadPut(size_t value_bytes, uint64_t i) {
  kv::Command c;
  c.op = kv::OpType::kPut;
  c.key = "bench/c" + std::to_string(i % 4) + "/k" + std::to_string(i % 256);
  c.value.assign(value_bytes, 'v');
  c.client_id = 3000 + i % 4;
  c.seq = i + 1;
  return c;
}

/// One AppendEntries carrying one workload-sized put, as a leader ships it.
raft::MessagePtr WorkloadAppend(size_t value_bytes) {
  auto slab = std::make_shared<raft::EntrySlab>(1);
  raft::LogEntry e;
  e.index = 42;
  e.term = 7;
  e.payload = kv::EncodeCommand(WorkloadPut(value_bytes, 1));
  slab->PushBack(std::move(e));
  raft::AppendEntries ae;
  ae.et = 7;
  ae.leader = 1;
  ae.prev_idx = 41;
  ae.prev_term = 7;
  ae.entries.PushSegment(slab, 0, 1);
  ae.commit = 41;
  return raft::MakeMessage(std::move(ae));
}

/// Two UdpTransports on loopback: node 2 answers every AppendEntries with
/// an AppendReply, node 1 times each round trip.
bool ProbeRtt(size_t value_bytes, double* p50_us, std::string* error) {
  net::SystemClock clock;
  uint16_t port1 = 0, port2 = 0;
  {
    // Bound probes learn two free ports, then release them.
    auto placeholder = net::Phonebook::Parse("9 127.0.0.1:1\n");
    net::UdpTransport probe1(1, *placeholder, &clock, nullptr);
    net::UdpTransport probe2(2, *placeholder, &clock, nullptr);
    if (!probe1.status().ok() || !probe2.status().ok()) {
      *error = "rtt probe: cannot bind loopback sockets";
      return false;
    }
    port1 = probe1.bound_port();
    port2 = probe2.bound_port();
  }
  auto book = net::Phonebook::Parse(
      "1 127.0.0.1:" + std::to_string(port1) + "\n2 127.0.0.1:" +
      std::to_string(port2) + "\n");
  MetricRegistry m1, m2;
  net::UdpTransport t1(1, *book, &clock, &m1);
  net::UdpTransport t2(2, *book, &clock, &m2);
  if (!t1.status().ok() || !t2.status().ok()) {
    *error = "rtt probe: " + t1.status().ToString() + " / " +
             t2.status().ToString();
    return false;
  }
  t2.Bind(2, [&t2](NodeId, const raft::Message&, obs::TraceCtx) {
    raft::AppendReply r;
    r.from = 2;
    r.ok = true;
    r.match = 42;
    t2.Send(2, 1, raft::MakeMessage(r));
  });
  uint64_t pongs = 0;
  t1.Bind(1, [&pongs](NodeId, const raft::Message&, obs::TraceCtx) {
    ++pongs;
  });
  const raft::MessagePtr ping = WorkloadAppend(value_bytes);
  std::vector<uint64_t> rtt_ns;
  rtt_ns.reserve(kRttRounds);
  for (int i = 0; i < kRttRounds; ++i) {
    const uint64_t want = pongs + 1;
    auto t0 = WallClock::now();
    t1.Send(1, 2, ping);
    while (pongs < want) {
      if (SecondsSince(t0) > 5) {
        *error = "rtt probe: no reply within 5 s";
        return false;
      }
      t2.OnReadable();
      t1.OnReadable();
      t1.OnTimer();
      t2.OnTimer();
    }
    rtt_ns.push_back(NanosSince(t0));
  }
  *p50_us = Percentile(rtt_ns, 50) / 1000.0;
  return true;
}

bool ProbeCodec(size_t value_bytes, double* encode_ns, double* decode_ns,
                std::string* error) {
  const raft::MessagePtr msg = WorkloadAppend(value_bytes);
  Encoder probe;
  net::EncodeMessage(probe, *msg);
  const std::vector<uint8_t> bytes = probe.buffer();

  size_t sink = 0;
  auto t0 = WallClock::now();
  for (int i = 0; i < kCodecRounds; ++i) {
    Encoder enc;
    net::EncodeMessage(enc, *msg);
    sink += enc.buffer().size();
  }
  *encode_ns = static_cast<double>(NanosSince(t0)) / kCodecRounds;

  t0 = WallClock::now();
  for (int i = 0; i < kCodecRounds; ++i) {
    Decoder dec(bytes);
    auto out = net::DecodeMessage(dec);
    if (!out.ok()) {
      *error = "codec probe: " + out.status().ToString();
      return false;
    }
    sink += out->wire_bytes();
  }
  *decode_ns = static_cast<double>(NanosSince(t0)) / kCodecRounds;
  if (sink == 0) {
    *error = "codec probe: empty encoding";
    return false;
  }
  return true;
}

/// FileDisk Append + Flush (fdatasync) of one WAL-record-sized write.
bool ProbeFsync(size_t value_bytes, const std::string& tmp_dir, double* p50_us,
                std::string* error) {
  const std::string dir = tmp_dir + "/fsync-probe";
  std::vector<uint64_t> us;
  {
    storage::FileDisk disk(dir);
    const std::vector<uint8_t> record(value_bytes + 64, 0x5a);
    for (int i = 0; i < kFsyncRounds; ++i) {
      auto t0 = WallClock::now();
      disk.Append("probe.wal", record);
      disk.Flush("probe.wal");
      us.push_back(NanosSince(t0) / 1000);
    }
    if (disk.DurableSize("probe.wal") != record.size() * kFsyncRounds) {
      *error = "fsync probe: durable size mismatch";
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  *p50_us = Percentile(us, 50);
  return true;
}

}  // namespace

LayerProbes RunLayerProbes(size_t value_bytes, const std::string& tmp_dir) {
  LayerProbes p;
  p.ok = ProbeRtt(value_bytes, &p.rtt_p50_us, &p.error) &&
         ProbeCodec(value_bytes, &p.encode_ns, &p.decode_ns, &p.error) &&
         ProbeFsync(value_bytes, tmp_dir, &p.fdatasync_us_p50, &p.error);
  return p;
}

KvMicro RunKvMicro(size_t value_bytes) {
  kv::KvMachine machine(KeyRange::Full());
  std::vector<sm::Command> puts, gets;
  for (int i = 0; i < kKvOps; ++i) {
    kv::Command put = WorkloadPut(value_bytes, static_cast<uint64_t>(i));
    puts.push_back(kv::EncodeCommand(put));
    kv::Command get;
    get.op = kv::OpType::kGet;
    get.key = put.key;
    gets.push_back(kv::EncodeCommand(get));
  }
  std::vector<uint64_t> apply_ns, query_ns;
  apply_ns.reserve(kKvOps);
  query_ns.reserve(kKvOps);
  size_t sink = 0;
  for (const auto& c : puts) {
    auto t0 = WallClock::now();
    sink += machine.Apply(c).payload.size();
    apply_ns.push_back(NanosSince(t0));
  }
  for (const auto& c : gets) {
    auto t0 = WallClock::now();
    sink += machine.Query(c).payload.size();
    query_ns.push_back(NanosSince(t0));
  }
  g_sink = sink;
  KvMicro out;
  out.apply_ns_p50 = Percentile(apply_ns, 50);
  out.query_ns_p50 = Percentile(query_ns, 50);
  return out;
}

}  // namespace perfbench
