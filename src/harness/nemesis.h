// Composable, schedulable fault injectors ("nemeses", after the Jepsen
// convention) driven entirely through the simulator's event queue: every
// toggle is a scheduled event drawn from a per-nemesis forked RNG, so a
// chaos run stays a pure function of (seed, configuration) and any failure
// replays exactly from its seed.
//
// Each Nemesis alternates quiet and active phases. Entering an active phase
// calls Inflict() (which draws victims and fault parameters from the
// nemesis' own RNG and records what it did); leaving calls Heal(), which
// undoes exactly the faults this nemesis inflicted — never a blanket
// Network::HealAll(), so independent nemeses compose without clobbering
// each other's state. Disarm() stops the schedule and heals; it is
// idempotent and safe to call from outside the event loop.
//
// Nemeses must never call the World's synchronous admin helpers (those
// re-enter the event loop); anything consensus-shaped (the churn storm) is
// fire-and-forget raw messages from kAdminId.
//
// NemesisMix bundles named behaviors into scenario presets ("classic",
// "gray", "disk", ... "all") for the sweep runner; see MakeNemesis() /
// NemesisMix::Make() for the catalogs.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "harness/world.h"

namespace recraft::harness {

/// Which nodes a nemesis may victimize.
struct NemesisTargets {
  std::vector<NodeId> members;  // consensus members under test
  std::vector<NodeId> spares;   // non-members (churn storms add/remove these)
};

/// Phase-length bounds (inclusive, microseconds) for the on/off schedule.
struct NemesisSchedule {
  Duration min_quiet = 100 * kMillisecond;
  Duration max_quiet = 400 * kMillisecond;
  Duration min_active = 50 * kMillisecond;
  Duration max_active = 250 * kMillisecond;
};

class Nemesis {
 public:
  explicit Nemesis(std::string name) : name_(std::move(name)) {}
  virtual ~Nemesis();

  Nemesis(const Nemesis&) = delete;
  Nemesis& operator=(const Nemesis&) = delete;

  const std::string& name() const { return name_; }

  /// Start the on/off schedule on `world`'s event queue. The first phase is
  /// quiet, so a freshly armed mix lets the cluster do some work before the
  /// first fault lands.
  void Arm(World& world, NemesisTargets targets, Rng rng);
  /// Stop scheduling and heal anything currently inflicted. Idempotent;
  /// already-queued toggle events become no-ops.
  void Disarm();

  bool armed() const { return armed_; }
  bool active() const { return active_; }
  /// Completed Inflict() calls — tests assert the schedule actually fired.
  uint64_t activations() const { return activations_; }

  NemesisSchedule& schedule() { return schedule_; }

 protected:
  /// Draw victims/parameters from `rng`, apply the fault, and remember what
  /// was done so Heal() can undo precisely that.
  virtual void Inflict(World& world, Rng& rng) = 0;
  virtual void Heal(World& world) = 0;

  NemesisTargets targets_;

 private:
  void Toggle(World& world);
  void ScheduleToggle(World& world);

  std::string name_;
  NemesisSchedule schedule_;
  Rng rng_{0};
  bool armed_ = false;
  bool active_ = false;
  uint64_t activations_ = 0;
  /// Liveness token (holding the armed world): queued toggle events hold a
  /// weak_ptr and die silently once the nemesis is disarmed or destroyed.
  std::shared_ptr<World*> alive_;
};

// --- behavior catalog -------------------------------------------------------
// Constructible directly for targeted tests; MakeNemesis() covers them all
// by name for the mix presets.

/// Symmetric partition: isolates a random minority group of members.
/// Owns the Network's group-partition state — at most one per mix.
class PartitionNemesis final : public Nemesis {
 public:
  PartitionNemesis() : Nemesis("partition") {}

 private:
  void Inflict(World& world, Rng& rng) override;
  void Heal(World& world) override;
};

/// Asymmetric partition: one victim loses a random *direction* of a random
/// subset of its links (built on Network::BlockOneWay).
class AsymPartitionNemesis final : public Nemesis {
 public:
  AsymPartitionNemesis() : Nemesis("asym-partition") {}

 private:
  void Inflict(World& world, Rng& rng) override;
  void Heal(World& world) override;

  std::vector<std::pair<NodeId, NodeId>> blocked_;  // (from, to)
};

/// Gray one-way loss: a victim's outbound (or inbound) links drop messages
/// with a drawn probability (possibly 1.0 — certain loss without an RNG
/// draw, see Network::SetLinkDropProbability).
class OneWayLossNemesis final : public Nemesis {
 public:
  OneWayLossNemesis() : Nemesis("oneway-loss") {}

 private:
  void Inflict(World& world, Rng& rng) override;
  void Heal(World& world) override;

  std::vector<std::pair<NodeId, NodeId>> lossy_;  // (from, to)
};

/// Slow links: a subset of directed member links gets an elevated latency.
class SlowLinksNemesis final : public Nemesis {
 public:
  SlowLinksNemesis() : Nemesis("slow-links") {}

 private:
  void Inflict(World& world, Rng& rng) override;
  void Heal(World& world) override;

  std::vector<std::pair<NodeId, NodeId>> slowed_;  // (from, to)
};

/// Disk-latency spike: victims' fsyncs take extra time, deferring group
/// commit (and the acks / commit votes gated on durability). kWal only;
/// silently idle otherwise.
class DiskLatencyNemesis final : public Nemesis {
 public:
  DiskLatencyNemesis() : Nemesis("disk-latency") {}

 private:
  void Inflict(World& world, Rng& rng) override;
  void Heal(World& world) override;

  std::vector<NodeId> victims_;
};

/// Fsync stall: one victim's disk stops completing fsyncs entirely — the
/// classic gray failure where a node looks alive but cannot persist. kWal
/// only; silently idle otherwise.
class FsyncStallNemesis final : public Nemesis {
 public:
  FsyncStallNemesis() : Nemesis("fsync-stall") {}

 private:
  void Inflict(World& world, Rng& rng) override;
  void Heal(World& world) override;

  NodeId victim_ = kNoNode;
};

/// Clock skew: victims' local tick interval is scaled into [0.5x, 2x],
/// desynchronizing election timeouts and heartbeat pacing.
class ClockSkewNemesis final : public Nemesis {
 public:
  ClockSkewNemesis() : Nemesis("clock-skew") {}

 private:
  void Inflict(World& world, Rng& rng) override;
  void Heal(World& world) override;

  std::vector<NodeId> victims_;
};

/// Membership churn storm: repeatedly adds/removes a dedicated spare via
/// fire-and-forget ReCraft membership changes sent to the current leader.
/// Requires at least one spare in the targets; idle otherwise.
class ChurnStormNemesis final : public Nemesis {
 public:
  ChurnStormNemesis() : Nemesis("churn") {}

  uint64_t changes_requested() const { return changes_requested_; }

 private:
  void Inflict(World& world, Rng& rng) override;
  void Heal(World& world) override;
  void SendChange(World& world);

  NodeId spare_ = kNoNode;
  uint64_t changes_requested_ = 0;
};

/// Rolling crash wave: hard-crashes (CrashNode, with a drawn in-flight
/// write-mangling CrashSpec) up to a minority of members per phase, and
/// restarts them on heal.
class CrashWaveNemesis final : public Nemesis {
 public:
  CrashWaveNemesis() : Nemesis("crash-wave") {}

 private:
  void Inflict(World& world, Rng& rng) override;
  void Heal(World& world) override;

  std::vector<NodeId> downed_;
};

/// Zipfian hot-key migration: rotates the client fleet's key ranks by a
/// live offset, moving the hot set around the key space mid-run. Wire the
/// fleet with ClientOptions::key_offset = nemesis.offset_ptr().
class HotKeyNemesis final : public Nemesis {
 public:
  HotKeyNemesis() : Nemesis("hotkey") {}

  const uint64_t* offset_ptr() const { return &offset_; }
  uint64_t offset() const { return offset_; }

 private:
  void Inflict(World& world, Rng& rng) override;
  void Heal(World& world) override;

  uint64_t offset_ = 0;
};

/// All individual behavior names, in catalog order.
std::vector<std::string> NemesisNames();
/// Construct a behavior by catalog name; null for unknown names.
std::unique_ptr<Nemesis> MakeNemesis(const std::string& name);

/// A named bundle of nemeses armed and disarmed together — one scenario in
/// the sweep matrix.
class NemesisMix {
 public:
  /// Preset catalog: "none", "classic" (partition + crash wave + slow
  /// links), "gray" (asymmetric partition + one-way loss + slow links),
  /// "disk" (latency spikes + fsync stall + crash wave), "clock" (skew +
  /// partition), "churn" (churn storm + crash wave), "hotkey" (hot-key
  /// migration + partition), "all" (everything).
  static Result<NemesisMix> Make(const std::string& mix_name);
  static std::vector<std::string> KnownMixes();

  NemesisMix(NemesisMix&&) = default;
  NemesisMix& operator=(NemesisMix&&) = default;
  ~NemesisMix();

  /// Arm every behavior with an independent RNG forked from `seed`.
  void Arm(World& world, const NemesisTargets& targets, uint64_t seed);
  /// Disarm (and heal) every behavior. Idempotent.
  void Disarm();

  const std::string& name() const { return name_; }
  const std::vector<std::unique_ptr<Nemesis>>& nemeses() const {
    return nemeses_;
  }
  uint64_t TotalActivations() const;
  /// The hot-key offset to wire into ClientOptions::key_offset; null when
  /// the mix has no hotkey behavior.
  const uint64_t* hot_key_offset() const {
    return hotkey_ == nullptr ? nullptr : hotkey_->offset_ptr();
  }

 private:
  explicit NemesisMix(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::vector<std::unique_ptr<Nemesis>> nemeses_;
  HotKeyNemesis* hotkey_ = nullptr;  // borrowed from nemeses_
};

}  // namespace recraft::harness
