// Parallel seeded chaos-sweep runner (see src/harness/sweep.h).
//
// Sweep mode (default): run seeds [first, first + N) across a thread pool,
// one world per thread; print a one-line repro for every failing world and
// exit nonzero if any failed:
//
//   sweep --seeds=2000 --mix=all --threads=8
//
// Repro mode: re-run exactly one world, single-threaded, in this process.
// The arguments are precisely the repro line a failing sweep printed
// (`--seed=S --mix=M --ticks=T digest=D`); the digest token, when present,
// is verified against the re-run so "same world" is checked, not assumed:
//
//   sweep --seed=1234 --mix=gray --ticks=200 digest=8f3a...
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/nemesis.h"
#include "harness/sweep.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace {

// At most this many failing seeds get the single-threaded traced re-run; a
// sweep where everything fails should not write hundreds of trace files.
constexpr size_t kMaxFailureTraces = 4;

bool ParseU64(const char* arg, const char* prefix, uint64_t* out) {
  size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) return false;
  *out = std::strtoull(arg + n, nullptr, 10);
  return true;
}

void PrintVerdict(const recraft::harness::WorldVerdict& v) {
  std::printf("%s  seed=%llu mix=%s events=%llu ops=%llu activations=%llu\n",
              v.ok() ? "OK  " : "FAIL", static_cast<unsigned long long>(v.seed),
              v.mix.c_str(), static_cast<unsigned long long>(v.events),
              static_cast<unsigned long long>(v.client_ops),
              static_cast<unsigned long long>(v.nemesis_activations));
  for (const auto& viol : v.violations) {
    std::printf("  violation: %s\n", viol.c_str());
  }
  if (!v.ok()) std::printf("  repro: %s\n", v.ReproLine().c_str());
}

// Deterministic replay of a failing seed with the flight recorder armed:
// the digest is identical to the original run (the recorder is pure
// observation), so the exported trace shows the violating world itself.
// Returns the file it wrote, or "" on failure.
std::string WriteFailureTrace(const recraft::harness::SweepOptions& opts,
                              uint64_t seed) {
  recraft::obs::Recorder recorder;
  recraft::harness::SweepOptions traced = opts;
  traced.recorder = &recorder;
  auto v = recraft::harness::RunSweepWorld(traced, seed);
  (void)v;
  std::string path = "trace-" + std::to_string(seed) + ".json";
  std::ofstream out(path);
  if (!out) return "";
  recraft::obs::ExportChromeTrace(recorder.Snapshot(), out);
  return out ? path : "";
}

// Per-mix rollup across a sweep's verdicts: totals plus the median across
// worlds of each client-latency percentile.
void PrintStats(const recraft::harness::SweepOptions& opts,
                const std::vector<recraft::harness::WorldVerdict>& verdicts) {
  uint64_t ops = 0, events = 0, activations = 0;
  std::vector<recraft::Duration> p50s, p99s, p999s;
  for (const auto& v : verdicts) {
    ops += v.client_ops;
    events += v.events;
    activations += v.nemesis_activations;
    if (v.client_ops > 0) {
      p50s.push_back(v.lat_p50);
      p99s.push_back(v.lat_p99);
      p999s.push_back(v.lat_p999);
    }
  }
  auto median = [](std::vector<recraft::Duration>& xs) -> long long {
    if (xs.empty()) return 0;
    std::sort(xs.begin(), xs.end());
    return static_cast<long long>(xs[xs.size() / 2]);
  };
  std::printf("stats[mix=%s]: worlds=%zu client_ops=%llu events=%llu "
              "nemesis_activations=%llu\n",
              opts.mix.c_str(), verdicts.size(),
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(activations));
  std::printf("stats[mix=%s]: median-world client latency p50=%lldus "
              "p99=%lldus p999=%lldus\n",
              opts.mix.c_str(), median(p50s), median(p99s), median(p999s));
}

}  // namespace

int main(int argc, char** argv) {
  using recraft::harness::NemesisMix;
  using recraft::harness::RunSweep;
  using recraft::harness::RunSweepWorld;
  using recraft::harness::SweepOptions;

  SweepOptions opts;
  uint64_t first_seed = 1;
  uint64_t count = 256;
  uint64_t threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  uint64_t single_seed = 0;
  bool single = false;
  uint64_t expected_digest = 0;
  bool check_digest = false;
  bool stats = false;
  bool trace_failures = true;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t u = 0;
    if (ParseU64(arg, "--seeds=", &count) ||
        ParseU64(arg, "--first-seed=", &first_seed) ||
        ParseU64(arg, "--threads=", &threads) ||
        ParseU64(arg, "--ticks=", &opts.chaos_ticks)) {
      continue;
    }
    if (ParseU64(arg, "--seed=", &u)) {
      single = true;
      single_seed = u;
      continue;
    }
    if (std::strncmp(arg, "--mix=", 6) == 0) {
      opts.mix = arg + 6;
      continue;
    }
    if (std::strncmp(arg, "digest=", 7) == 0) {
      expected_digest = std::strtoull(arg + 7, nullptr, 16);
      check_digest = true;
      continue;
    }
    if (std::strcmp(arg, "--inject-divergence") == 0) {
      opts.inject_divergence = true;
      continue;
    }
    if (std::strcmp(arg, "--stats") == 0) {
      stats = true;
      continue;
    }
    if (std::strcmp(arg, "--no-trace") == 0) {
      trace_failures = false;
      continue;
    }
    if (std::strcmp(arg, "--list-mixes") == 0) {
      for (const auto& m : NemesisMix::KnownMixes()) {
        std::printf("%s\n", m.c_str());
      }
      return 0;
    }
    std::fprintf(stderr, "unknown argument: %s\n", arg);
    return 2;
  }

  if (single) {
    auto v = RunSweepWorld(opts, single_seed);
    PrintVerdict(v);
    std::printf("digest=%016llx\n", static_cast<unsigned long long>(v.digest));
    if (check_digest && v.digest != expected_digest) {
      std::printf("DIGEST MISMATCH: expected %016llx\n",
                  static_cast<unsigned long long>(expected_digest));
      return 1;
    }
    if (stats) PrintStats(opts, {v});
    if (!v.ok()) {
      if (!v.diagnostics.empty()) std::printf("%s", v.diagnostics.c_str());
      if (trace_failures) {
        std::string path = WriteFailureTrace(opts, single_seed);
        if (!path.empty()) std::printf("  trace: %s\n", path.c_str());
      }
    }
    return v.ok() ? 0 : 1;
  }

  std::printf("sweep: %llu worlds, mix=%s, ticks=%llu, %llu threads\n",
              static_cast<unsigned long long>(count), opts.mix.c_str(),
              static_cast<unsigned long long>(opts.chaos_ticks),
              static_cast<unsigned long long>(threads));
  auto result = RunSweep(opts, first_seed, static_cast<size_t>(count),
                         static_cast<size_t>(threads));
  size_t traces_written = 0;
  for (const auto& v : result.verdicts) {
    if (v.ok()) continue;
    PrintVerdict(v);
    // Re-run the failing seed single-threaded with the recorder armed and
    // park the Perfetto-loadable trace next to the repro line.
    if (trace_failures && traces_written < kMaxFailureTraces) {
      std::string path = WriteFailureTrace(opts, v.seed);
      if (!path.empty()) {
        std::printf("  trace: %s\n", path.c_str());
        ++traces_written;
      }
    }
  }
  if (stats) PrintStats(opts, result.verdicts);
  std::printf("sweep: %zu/%llu worlds passed, %zu failed, digest=%016llx\n",
              result.verdicts.size() - result.failures,
              static_cast<unsigned long long>(count), result.failures,
              static_cast<unsigned long long>(result.digest));
  return result.failures == 0 ? 0 : 1;
}
