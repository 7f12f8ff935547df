// The sweep harness itself: per-seed verdicts are a pure function of
// (seed, options) regardless of thread count, every preset mix runs clean,
// an injected regression is caught with a single-line repro that replays
// bit-identically in one thread, and unknown mixes are rejected.
#include <string>

#include "harness/nemesis.h"
#include "harness/sweep.h"
#include "tests/test_util.h"

namespace recraft::test {
namespace {

using harness::NemesisMix;
using harness::RunSweep;
using harness::RunSweepWorld;
using harness::SweepOptions;

SweepOptions QuickOptions(const std::string& mix) {
  SweepOptions opts;
  opts.mix = mix;
  opts.chaos_ticks = 50;
  return opts;
}

// The acceptance property: one world per thread, zero shared mutable state,
// so N-way parallelism changes nothing about any world's execution.
TEST(Sweep, SingleVsMultiThreadDigestsIdentical) {
  SweepOptions opts = QuickOptions("all");
  auto serial = RunSweep(opts, /*first_seed=*/1, /*count=*/8, /*threads=*/1);
  auto parallel = RunSweep(opts, /*first_seed=*/1, /*count=*/8, /*threads=*/4);
  ASSERT_EQ(serial.verdicts.size(), parallel.verdicts.size());
  for (size_t i = 0; i < serial.verdicts.size(); ++i) {
    const auto& s = serial.verdicts[i];
    const auto& p = parallel.verdicts[i];
    EXPECT_EQ(s.seed, p.seed);
    EXPECT_EQ(s.digest, p.digest) << "seed " << s.seed;
    EXPECT_EQ(s.events, p.events) << "seed " << s.seed;
    EXPECT_EQ(s.client_ops, p.client_ops) << "seed " << s.seed;
    EXPECT_EQ(s.violations, p.violations) << "seed " << s.seed;
  }
  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial.failures, 0u);
  EXPECT_EQ(parallel.failures, 0u);
}

// Every preset mix survives a short sweep with zero safety violations and
// does real work (events executed, client ops completed).
TEST(Sweep, EveryKnownMixRunsClean) {
  for (const auto& mix : NemesisMix::KnownMixes()) {
    SweepOptions opts = QuickOptions(mix);
    auto v = RunSweepWorld(opts, 7);
    // On failure the verdict carries World::DumpDiagnostics output — the
    // per-node role/term/commit table beats re-running under a debugger.
    EXPECT_TRUE(v.ok()) << "mix " << mix << ": " << v.ReproLine() << "\n"
                        << v.diagnostics;
    for (const auto& viol : v.violations) {
      ADD_FAILURE() << "mix " << mix << ": " << viol;
    }
    EXPECT_GT(v.events, 0u) << "mix " << mix;
    EXPECT_GT(v.client_ops, 0u) << "mix " << mix;
    if (mix != "none") {
      EXPECT_GT(v.nemesis_activations, 0u) << "mix " << mix;
    }
  }
}

// An injected linearizability regression (a phantom write appended to the
// checked history) must be caught in every world, and the printed repro
// must replay the exact same world — digest, verdict and violations —
// single-threaded.
TEST(Sweep, InjectedRegressionCaughtWithDeterministicRepro) {
  SweepOptions opts = QuickOptions("classic");
  opts.inject_divergence = true;
  auto result = RunSweep(opts, /*first_seed=*/1, /*count=*/4, /*threads=*/4);
  EXPECT_EQ(result.failures, 4u);
  for (const auto& v : result.verdicts) {
    EXPECT_FALSE(v.ok());
    EXPECT_FALSE(v.violations.empty());
    // Failing verdicts capture the world's diagnostics dump at verdict time.
    EXPECT_NE(v.diagnostics.find("node"), std::string::npos) << v.diagnostics;
    std::string repro = v.ReproLine();
    EXPECT_NE(repro.find("--seed="), std::string::npos);
    EXPECT_NE(repro.find("--mix=classic"), std::string::npos);
    EXPECT_NE(repro.find("--inject-divergence"), std::string::npos);
    EXPECT_NE(repro.find("digest="), std::string::npos);

    // Replay exactly as the repro line would: same options, one thread, one
    // world in this process.
    auto replay = RunSweepWorld(opts, v.seed);
    EXPECT_EQ(replay.digest, v.digest) << repro;
    EXPECT_EQ(replay.events, v.events) << repro;
    EXPECT_EQ(replay.violations, v.violations) << repro;
    EXPECT_FALSE(replay.ok());
  }
}

// The divergence knob perturbs only the checked history, never the world:
// the digest with injection matches the clean run of the same seed.
TEST(Sweep, InjectionDoesNotPerturbTheWorld) {
  SweepOptions clean = QuickOptions("classic");
  SweepOptions injected = clean;
  injected.inject_divergence = true;
  auto a = RunSweepWorld(clean, 3);
  auto b = RunSweepWorld(injected, 3);
  EXPECT_TRUE(a.ok()) << a.ReproLine();
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
}

TEST(Sweep, UnknownMixRejected) {
  EXPECT_FALSE(NemesisMix::Make("no-such-mix").ok());
  auto v = RunSweepWorld(QuickOptions("no-such-mix"), 1);
  EXPECT_FALSE(v.ok());
  ASSERT_FALSE(v.violations.empty());
  EXPECT_NE(v.violations[0].find("no-such-mix"), std::string::npos);
}

}  // namespace
}  // namespace recraft::test
