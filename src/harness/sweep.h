// Seeded chaos-world sweeps: build a cluster + client fleet + nemesis mix
// from a single seed, run it, and check every safety property the harness
// knows (SafetyChecker invariants + KvHistoryChecker store/history
// agreement). Each world is a pure function of (seed, SweepOptions), so a
// failing verdict carries a single-line repro that replays the exact run in
// one process — the sweep runner's whole reason to exist.
//
// RunSweep fans worlds out across a thread pool, one world per thread at a
// time, with zero shared mutable state between worlds (each owns its event
// queue, RNGs, network and disks); verdicts land in per-seed slots, so the
// result — including each world's execution digest — is identical whether
// the sweep ran on 1 thread or N.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"

namespace recraft::harness {

struct SweepOptions {
  /// Nemesis scenario preset; see NemesisMix::KnownMixes().
  std::string mix = "all";
  /// Chaos window length, in node tick intervals (default tick = 10 ms).
  uint64_t chaos_ticks = 200;
  /// Corrupt the *checked history* (never the system) with one phantom
  /// write, so every world fails its store/history comparison: proves the
  /// catch -> repro-line -> deterministic-replay pipeline end to end.
  bool inject_divergence = false;
  /// Optional flight recorder, armed for the whole world (nodes, network,
  /// WALs, clients). Pure observation — the digest is identical armed or
  /// not — so it is safe to re-run a failing seed with this set and export
  /// the trace. Never share one recorder across parallel sweep worlds.
  obs::Recorder* recorder = nullptr;
};

struct WorldVerdict {
  uint64_t seed = 0;
  std::string mix;
  uint64_t chaos_ticks = 0;
  bool injected = false;
  uint64_t digest = 0;  // EventQueue::execution_digest() at verdict time
  uint64_t events = 0;
  Duration sim_end = 0;
  uint64_t client_ops = 0;
  uint64_t nemesis_activations = 0;
  /// Client-op latency percentiles, pooled across the fleet (microseconds).
  Duration lat_p50 = 0;
  Duration lat_p99 = 0;
  Duration lat_p999 = 0;
  bool converged = false;
  std::vector<std::string> violations;
  /// World::DumpDiagnostics output, captured at verdict time when the world
  /// failed (empty on clean worlds): per-node roles/indices, network and
  /// disk counters, event-queue digest.
  std::string diagnostics;

  bool ok() const { return converged && violations.empty(); }
  /// Single-line repro, pasteable as tools/sweep arguments:
  ///   --seed=S --mix=M --ticks=T digest=D
  std::string ReproLine() const;
};

/// Run one seeded world to a verdict. Deterministic: same (opts, seed) ->
/// same digest, same violations, bit for bit.
WorldVerdict RunSweepWorld(const SweepOptions& opts, uint64_t seed);

struct SweepResult {
  std::vector<WorldVerdict> verdicts;  // indexed by seed order
  size_t failures = 0;
  /// Every world's digest folded in seed order: two builds whose sweeps
  /// print the same value ran schedule-identical worlds.
  uint64_t digest = 0;
};

/// Run seeds [first_seed, first_seed + count) across `threads` workers.
/// Workers only write their own verdict slots; aggregation happens after
/// the join, so nothing about the result depends on thread interleaving.
SweepResult RunSweep(const SweepOptions& opts, uint64_t first_seed,
                     size_t count, size_t threads);

}  // namespace recraft::harness
