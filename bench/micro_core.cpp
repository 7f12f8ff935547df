// Microbenchmarks (google-benchmark) for the building blocks: log append /
// slice, KV apply, snapshot serialization, quorum checks, event queue and
// network throughput. These are not paper figures; they document the
// simulator's own capacity.
#include <benchmark/benchmark.h>

#include "harness/world.h"
#include "kv/kv.h"
#include "raft/config.h"
#include "raft/log.h"
#include "sim/event_queue.h"

namespace recraft {
namespace {

void BM_LogAppend(benchmark::State& state) {
  for (auto _ : state) {
    raft::RaftLog log;
    for (Index i = 1; i <= 1000; ++i) {
      raft::LogEntry e;
      e.index = i;
      e.term = 1;
      e.payload = raft::NoOp{};
      log.Append(std::move(e));
    }
    benchmark::DoNotOptimize(log.last_index());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LogAppend);

void BM_LogSlice(benchmark::State& state) {
  raft::RaftLog log;
  for (Index i = 1; i <= 10000; ++i) {
    raft::LogEntry e;
    e.index = i;
    e.term = 1;
    e.payload = raft::NoOp{};
    log.Append(std::move(e));
  }
  for (auto _ : state) {
    auto s = log.Slice(5000, 5128);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_LogSlice);

void BM_KvApply(benchmark::State& state) {
  kv::Store store;
  kv::Command cmd;
  cmd.op = kv::OpType::kPut;
  cmd.value = std::string(512, 'x');
  uint64_t i = 0;
  for (auto _ : state) {
    cmd.key = "key" + std::to_string(i++ % 10000);
    benchmark::DoNotOptimize(store.Apply(cmd));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvApply);

void BM_SnapshotSerialize(benchmark::State& state) {
  kv::Store store;
  for (int i = 0; i < state.range(0); ++i) {
    kv::Command cmd;
    cmd.op = kv::OpType::kPut;
    cmd.key = "key" + std::to_string(i);
    cmd.value = std::string(512, 'v');
    (void)store.Apply(cmd);
  }
  auto snap = store.TakeSnapshot();
  for (auto _ : state) {
    auto bytes = snap->Serialize();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(snap->Serialize().size()));
}
BENCHMARK(BM_SnapshotSerialize)->Arg(100)->Arg(1000)->Arg(10000);

void BM_QuorumSatisfied(benchmark::State& state) {
  std::vector<raft::SubCluster> subs(3);
  for (int i = 0; i < 3; ++i) {
    for (NodeId n = 1; n <= 3; ++n) {
      subs[static_cast<size_t>(i)].members.push_back(
          static_cast<NodeId>(i * 3) + n);
    }
  }
  auto q = raft::QuorumSpec::JointSubs(subs);
  std::set<NodeId> acks{1, 2, 4, 5, 7, 8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.Satisfied(acks));
  }
}
BENCHMARK(BM_QuorumSatisfied);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    int fired = 0;
    for (int i = 0; i < 10000; ++i) {
      q.Schedule(static_cast<Duration>(i % 100), [&fired]() { ++fired; });
    }
    q.RunUntil(1000);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueThroughput);

void BM_SimulatedClusterSecond(benchmark::State& state) {
  // How much wall time one simulated second of an idle 3-node cluster
  // costs — the constant factor behind every other bench.
  for (auto _ : state) {
    harness::WorldOptions opts;
    opts.seed = 1;
    harness::World w(opts);
    auto c = w.CreateCluster(3);
    w.RunFor(1 * kSecond);
    benchmark::DoNotOptimize(w.LeaderOf(c));
  }
}
BENCHMARK(BM_SimulatedClusterSecond);

}  // namespace
}  // namespace recraft

BENCHMARK_MAIN();
