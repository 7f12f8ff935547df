// The load process of real_3proc: closed-loop net::KvClient threads against
// three recraftd daemons that run.py started on loopback UDP.
//
// Protocol with run.py, on stdout, one line each, flushed:
//   FIRST_ACK <CLOCK_MONOTONIC ns>   the first acknowledged op
//   WINDOW_START                     the measured window opens
//   WINDOW_END <leader id>           it closes (run.py samples /proc here)
// and finally the result line. Every acknowledged write goes into a
// history; reads are checked against each client's own model as they
// return, and the whole history against live reads at the end.
#include "real_load.h"

#include <time.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "harness/checkers.h"
#include "kv/service.h"
#include "net/phonebook.h"
#include "net/udp_client.h"
#include "probes.h"

namespace perfbench {
namespace {

using namespace recraft;  // NOLINT: benchmark-local convenience

constexpr NodeId kFirstLoadClient = 3000;
constexpr NodeId kProbeClient = 3999;
constexpr NodeId kCheckClient = 3998;
// The workload: 4 closed-loop clients (4 = nproc of the reference
// machine), 80% puts / 20% gets of 64 B values, each client on its own keys.
constexpr size_t kThreads = 4;
constexpr size_t kValueBytes = 64;
constexpr uint64_t kKeysPerClient = 256;
constexpr Duration kOpDeadline = 5 * kSecond;
constexpr double kLeaderWaitS = 20;
constexpr double kWarmupS = 0.5;

uint64_t MonotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

struct OpRecord {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  bool failed = false;
};

struct ClientState {
  std::vector<OpRecord> ops;
  std::vector<kv::Command> acked;      // acknowledged writes, in order
  std::map<std::string, std::string> model;
  std::set<std::string> uncertain;     // a write to it failed: not checkable
  std::vector<std::string> violations;
};

std::atomic<bool> g_stop{false};
std::atomic<NodeId> g_leader{kNoNode};

void ClientLoop(size_t idx, uint64_t seed, const net::Phonebook& book,
                ClientState* st) {
  const NodeId id = static_cast<NodeId>(kFirstLoadClient + idx);
  net::KvClient client(id, book);
  std::mt19937_64 rng(Mix64(seed, idx));
  uint64_t seq = 0;
  const std::string prefix =
      "s" + std::to_string(seed) + "/c" + std::to_string(idx) + "/k";
  while (!g_stop.load(std::memory_order_relaxed)) {
    kv::Command cmd;
    cmd.key = prefix + std::to_string(rng() % kKeysPerClient);
    const bool is_get = rng() % 100 < 20;
    if (is_get) {
      cmd.op = kv::OpType::kGet;
    } else {
      cmd.op = kv::OpType::kPut;
      cmd.client_id = id;
      cmd.seq = ++seq;
      cmd.value = "v" + std::to_string(idx) + "-" + std::to_string(seq) + "-";
      cmd.value.resize(kValueBytes, 'x');
    }
    OpRecord rec;
    rec.start_ns = MonotonicNs();
    kv::Response r = client.Do(cmd, kOpDeadline);
    rec.end_ns = MonotonicNs();
    if (idx == 0) g_leader.store(client.last_leader());

    if (is_get) {
      if (!r.status.ok() && r.status.code() != Code::kNotFound) {
        rec.failed = true;
      } else if (st->uncertain.count(cmd.key) == 0) {
        // One writer per key: a read must return this client's last
        // acknowledged write.
        auto have = st->model.find(cmd.key);
        std::string want = have == st->model.end() ? "" : have->second;
        std::string got = r.status.ok() ? r.value : "";
        if (got != want) {
          st->violations.push_back("read of " + cmd.key + " returned '" +
                                   got.substr(0, 24) + "', expected '" +
                                   want.substr(0, 24) + "'");
        }
      }
    } else if (r.status.ok()) {
      st->model[cmd.key] = cmd.value;
      st->acked.push_back(cmd);
    } else {
      rec.failed = true;
      st->uncertain.insert(cmd.key);
    }
    st->ops.push_back(rec);
  }
}

/// Replays the acknowledged writes through KvHistoryChecker and compares
/// every touched key with a live read, as `recraft-cli check` does.
std::vector<std::string> CheckHistory(const net::Phonebook& book,
                                      const std::vector<ClientState>& states) {
  std::vector<std::string> violations;
  std::vector<kv::Command> history;
  std::set<std::string> uncertain;
  for (const ClientState& st : states) {
    history.insert(history.end(), st.acked.begin(), st.acked.end());
    uncertain.insert(st.uncertain.begin(), st.uncertain.end());
  }
  harness::KvHistoryChecker checker;
  const auto expect = checker.Replay(history);
  net::KvClient reader(kCheckClient, book);
  for (const auto& [key, value] : expect) {
    if (uncertain.count(key) != 0) continue;
    kv::Command get;
    get.op = kv::OpType::kGet;
    get.key = key;
    kv::Response r = reader.Do(get, kOpDeadline);
    if (!r.status.ok() || r.value != value) {
      violations.push_back("history: " + key + " reads '" +
                           r.value.substr(0, 24) + "' (" +
                           r.status.ToString() + "), history implies '" +
                           value.substr(0, 24) + "'");
      if (violations.size() > 5) break;
    }
  }
  return violations;
}

}  // namespace

int RunRealLoad(const LoadOptions& o) {
  auto book = net::Phonebook::Load(o.hosts);
  if (!book.ok()) {
    std::fprintf(stderr, "load: %s\n", book.status().ToString().c_str());
    return 2;
  }

  // Hard deadline on the wait for a leader: the first acknowledged op.
  {
    net::KvClient probe(kProbeClient, *book);
    auto t0 = WallClock::now();
    bool up = false;
    while (!up && SecondsSince(t0) < kLeaderWaitS) {
      kv::Command c;
      c.op = kv::OpType::kGet;
      c.key = "\x01__leader_probe";
      kv::Response r = probe.Do(c, 200 * kMillisecond);
      up = r.status.ok() || r.status.code() == Code::kNotFound;
    }
    if (!up) {
      std::fprintf(stderr, "load: no leader answered within %.0f s\n",
                   kLeaderWaitS);
      return 3;
    }
    std::printf("FIRST_ACK %llu\n",
                static_cast<unsigned long long>(MonotonicNs()));
    std::fflush(stdout);
  }
  if (o.seconds <= 0) return 0;

  std::vector<ClientState> states(kThreads);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back(ClientLoop, i, o.seed, std::cref(*book), &states[i]);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));
  const uint64_t win_start = MonotonicNs();
  std::printf("WINDOW_START\n");
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::duration<double>(o.seconds));
  const uint64_t win_end = MonotonicNs();
  std::printf("WINDOW_END %u\n", static_cast<unsigned>(g_leader.load()));
  std::fflush(stdout);
  g_stop = true;
  for (auto& t : threads) t.join();

  // Window accounting: throughput counts ops completed inside the window;
  // latency takes ops that started and finished inside it.
  uint64_t done = 0, failed = 0;
  std::vector<uint64_t> lat_ns;
  std::vector<std::string> violations;
  for (const ClientState& st : states) {
    for (const OpRecord& r : st.ops) {
      if (r.end_ns < win_start || r.end_ns > win_end) continue;
      ++done;
      if (r.failed) ++failed;
      if (r.start_ns >= win_start) lat_ns.push_back(r.end_ns - r.start_ns);
    }
    violations.insert(violations.end(), st.violations.begin(),
                      st.violations.end());
  }
  if (violations.empty()) violations = CheckHistory(*book, states);

  const double window_s = static_cast<double>(win_end - win_start) / 1e9;
  Metrics m;
  m["ops_per_s"] = {static_cast<double>(done) / window_s, "1/s"};
  m["lat_p50_us"] = {Percentile(lat_ns, 50) / 1000.0, "us"};
  m["lat_p99_us"] = {Percentile(lat_ns, 99) / 1000.0, "us"};
  if (o.trace) {
    LayerProbes probes = RunLayerProbes(kValueBytes, o.tmp_dir);
    if (!probes.ok) violations.push_back(probes.error);
    probes.AddTo(&m);
    KvMicro kvm = RunKvMicro(kValueBytes);
    m["kv.apply_ns_p50"] = {kvm.apply_ns_p50, "ns"};
    m["kv.query_ns_p50"] = {kvm.query_ns_p50, "ns"};
  }
  if (done == 0) violations.push_back("no op completed in the window");
  std::string error;
  for (const std::string& v : violations) error += v + "; ";
  std::printf("real_3proc load: %llu ops in %.3f s, %llu failed, %zu "
              "acknowledged writes in the history\n",
              static_cast<unsigned long long>(done), window_s,
              static_cast<unsigned long long>(failed),
              [&] {
                size_t n = 0;
                for (const auto& st : states) n += st.acked.size();
                return n;
              }());
  PrintResult(violations.empty(), error, std::max<uint64_t>(done, 1), failed,
              m);
  return violations.empty() ? 0 : 1;
}

}  // namespace perfbench
