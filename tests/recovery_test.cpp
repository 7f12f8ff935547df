// Pull-based recovery and long-term failure handling (§III-B, §V): PULL vote
// responses, epoch-boundary capping, snapshot fallbacks, reconfiguration
// history and the naming-service path — plus hard-reboot variants where the
// node object is destroyed and rebuilt purely from its WAL, and the one boot
// decision of core::Node (a present image beats the genesis argument).
#include "storage/wal_storage.h"
#include "tests/test_util.h"

namespace recraft::test {
namespace {

TEST(Recovery, OfflineNodeCatchesUpFromPeers) {
  // §V "Restoring a Node": live members contact and update it.
  World w(TestWorldOptions(1));
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  NodeId victim = c[0] == w.LeaderOf(c) ? c[1] : c[0];
  w.Crash(victim);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(w.Put(c, "k" + std::to_string(i), "v").ok());
  }
  w.Restart(victim);
  ExpectConverged(w, c);
  EXPECT_EQ(harness::KvStoreOf(w.node(victim)).size(), 10u);
}

TEST(Recovery, PullServesOnlyCommittedEntries) {
  // A node that is mid-split (Leaving, not stable) must not serve pulls.
  World w(TestWorldOptions(2));
  auto c = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(c));
  NodeId leader = w.LeaderOf(c);
  // Directly probe HandlePullRequest behaviour through the message layer: a
  // stable node answers, and the reply contains only committed entries.
  ASSERT_TRUE(w.Put(c, "a", "1").ok());
  raft::PullRequest req;
  req.from = harness::kAdminId;
  req.epoch = 0;
  req.next_idx = 1;
  // Use a non-member requester: same-epoch pulls are only served to
  // members, so this must be ignored.
  w.net().Send(harness::kAdminId, leader,
               raft::MakeMessage(raft::Message(req)), 32);
  w.RunFor(200 * kMillisecond);
  // (No crash + no reply handling here: the absence of a crash is the test;
  // member-to-member pulls are covered by the split/merge suites.)
  SUCCEED();
}

TEST(Recovery, EpochBoundaryCapsPulledEntries) {
  // After a split, a laggard pulling from a completed sibling must not
  // receive the sibling's post-split entries (they belong to a different
  // subcluster's range).
  World w(TestWorldOptions(3));
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "a", "1").ok());
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  // A member of g2 sleeps through the split.
  NodeId sleeper = g2[2] == w.LeaderOf(c) ? g2[1] : g2[2];
  w.Crash(sleeper);
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}).ok());
  ASSERT_TRUE(w.WaitForLeader(g1));
  // g1 commits fresh post-split entries the sleeper must never see.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(w.Put(g1, "g1-" + std::to_string(i), "x").ok());
  }
  w.Restart(sleeper);
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        return w.node(sleeper).epoch() == 1 &&
               w.node(sleeper).config().mode == raft::ConfigMode::kStable;
      },
      15 * kSecond));
  // The sleeper ended in g2 with g2's range; no g1 keys leaked into it.
  EXPECT_TRUE(w.RunUntil(
      [&]() { return w.node(sleeper).config().members == g2; }, 5 * kSecond));
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(
        harness::KvStoreOf(w.node(sleeper)).Get("g1-" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

TEST(Recovery, HistorySurvivesCompaction) {
  auto opts = TestWorldOptions(4);
  opts.node.snapshot_threshold = 10;
  World w(opts);
  auto c = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(c));
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}).ok());
  ASSERT_TRUE(w.WaitForLeader(g1));
  // Force compaction well past the split boundary.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(w.Put(g1, "a" + std::to_string(i), "v").ok());
  }
  NodeId l = w.LeaderOf(g1);
  ASSERT_GT(w.node(l).log().base_index(), 0u);
  // The reconfiguration history still records the split (for §V recovery).
  bool has_split = false;
  for (const auto& rec : w.node(l).history()) {
    if (rec.kind == raft::ReconfigRecord::Kind::kSplit) has_split = true;
  }
  EXPECT_TRUE(has_split);
}

TEST(Recovery, SnapshotFallbackAfterCompaction) {
  // A node that misses the split AND whose peers compacted their logs past
  // the boundary recovers via the snapshot path.
  auto opts = TestWorldOptions(5);
  opts.node.snapshot_threshold = 10;
  World w(opts);
  auto c = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(c));
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  NodeId sleeper = g2[1];
  if (sleeper == w.LeaderOf(c)) sleeper = g2[0];
  w.Crash(sleeper);
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}).ok());
  std::vector<NodeId> g2_live;
  for (NodeId id : g2) {
    if (id != sleeper) g2_live.push_back(id);
  }
  ASSERT_TRUE(w.WaitForLeader(g2_live));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(w.Put(g2_live, "z" + std::to_string(i), "v").ok());
  }
  w.Restart(sleeper);
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        return w.node(sleeper).epoch() == 1 &&
               w.node(sleeper).last_applied() >= 40;
      },
      20 * kSecond))
      << "sleeper at " << w.node(sleeper).config().ToString();
}

TEST(Recovery, NamingServiceRestoresAbandonedNode) {
  // §V "Restoring a Cluster" second case: all the node's peers were
  // removed; it finds the successor through the naming service.
  auto opts = TestWorldOptions(6);
  opts.node.naming_fallback_ticks = 30;
  World w(opts);
  auto c = w.CreateCluster(4);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "k", "v").ok());
  NodeId sleeper = c[3] == w.LeaderOf(c) ? c[2] : c[3];
  w.Crash(sleeper);
  // Remove the sleeper, then every other node it knew changes identity via
  // a split — its config members no longer answer as peers it can use.
  ASSERT_TRUE(w.AdminMemberChange(
                   c, Change(raft::MemberChangeKind::kRemoveAndResize,
                             {sleeper}))
                  .ok());
  std::vector<NodeId> rest;
  for (NodeId id : c) {
    if (id != sleeper) rest.push_back(id);
  }
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        NodeId l = w.LeaderOf(rest);
        return l != kNoNode && w.node(l).config().members == rest;
      },
      10 * kSecond));
  ASSERT_TRUE(w.Put(rest, "post", "x").ok());
  w.Restart(sleeper);
  // The sleeper still believes in the old 4-node config; its peers answer
  // (they are alive), so it catches up and learns of its removal.
  ASSERT_TRUE(w.RunUntil([&]() { return w.node(sleeper).IsRetired(); },
                         20 * kSecond))
      << w.node(sleeper).config().ToString();
}

TEST(Recovery, NamingServiceTracksReconfigurations) {
  World w(TestWorldOptions(7));
  auto c = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(c));
  EXPECT_GE(w.naming().size(), 0u);
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}).ok());
  ASSERT_TRUE(w.WaitForLeader(g1));
  ASSERT_TRUE(w.WaitForLeader(g2));
  ASSERT_TRUE(w.RunUntil([&]() { return w.naming().size() >= 2; },
                         10 * kSecond));
  // Directory lists both subclusters with their ranges.
  auto dir = w.naming().Directory();
  bool left = false, right = false;
  for (const auto& reg : dir.clusters) {
    if (reg.range == KeyRange("", "m")) left = true;
    if (reg.range == KeyRange("m", "")) right = true;
  }
  EXPECT_TRUE(left);
  EXPECT_TRUE(right);
}

TEST(Recovery, HardRebootAcrossSplitEpochBoundary) {
  // The §III-B laggard scenario with a *hard* crash: the sleeper is
  // destroyed before the split, reboots from its pre-split WAL image
  // (epoch 0 state), and must cross the epoch boundary via pull/snapshot
  // recovery — ending in its own subcluster with no sibling keys leaked.
  WorldOptions opts = TestWorldOptions(20);
  opts.storage = harness::StorageMode::kWal;
  opts.wal.flush_interval = 1 * kMillisecond;
  World w(opts);
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "a", "1").ok());
  w.RunFor(50 * kMillisecond);
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  NodeId sleeper = g2[2] == w.LeaderOf(c) ? g2[1] : g2[2];
  ASSERT_TRUE(
      w.CrashNode(sleeper, {storage::CrashPoint::kPartialBatch}).ok());
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}).ok());
  ASSERT_TRUE(w.WaitForLeader(g1));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(w.Put(g1, "g1-" + std::to_string(i), "x").ok());
  }
  ASSERT_TRUE(w.RestartNode(sleeper).ok());
  // The reboot restored pre-split epoch-0 state from disk alone...
  EXPECT_EQ(w.node(sleeper).epoch(), 0u);
  // ...and the live protocols carry it across the boundary.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        return w.node(sleeper).epoch() == 1 &&
               w.node(sleeper).config().mode == raft::ConfigMode::kStable;
      },
      20 * kSecond));
  EXPECT_TRUE(w.RunUntil(
      [&]() { return w.node(sleeper).config().members == g2; }, 5 * kSecond));
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(
        harness::KvStoreOf(w.node(sleeper)).Get("g1-" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

TEST(Recovery, PresentImageWinsOverGenesisArgument) {
  // core::Node boots one way: storage that already holds an image is a
  // restart, so a different genesis argument must be ignored and the
  // persisted configuration, term and commit index recovered.
  core::Options opts;
  opts.machine_factory = kv::KvMachineFactory();
  auto drop = [](NodeId, raft::MessagePtr) {};
  raft::ConfigState genesis;
  genesis.members = {1};
  genesis.range = KeyRange::Full();
  genesis.uid = 99;
  storage::InMemoryStorage disk;
  uint64_t term = 0;
  Index commit = 0;
  {
    core::Node first(1, opts, disk, Rng(7), drop, genesis);
    for (int i = 0; i < 100 && !first.IsLeader(); ++i) first.Tick();
    ASSERT_TRUE(first.IsLeader());  // single-node quorum
    term = first.current_et().raw();
    commit = first.commit_index();
    ASSERT_GT(term, 0u);
    ASSERT_GT(commit, 1u);  // the leader's no-op is committed on top
  }
  raft::ConfigState other;
  other.members = {5, 6, 7};
  other.range = KeyRange("a", "b");
  other.uid = 1234;
  core::Node reborn(1, opts, disk, Rng(8), drop, other);
  EXPECT_EQ(reborn.config().members, std::vector<NodeId>{1});
  EXPECT_EQ(reborn.config().range, KeyRange::Full());
  EXPECT_EQ(reborn.cluster_uid(), 99u);
  EXPECT_EQ(reborn.current_et().raw(), term);
  EXPECT_EQ(reborn.commit_index(), commit);
  EXPECT_FALSE(reborn.IsLeader());
  EXPECT_EQ(reborn.counters().Get("node.boot"), 1u);
}

TEST(Recovery, CrashedLeaderRejoinsAsFollower) {
  World w(TestWorldOptions(8));
  auto c = w.CreateCluster(5);
  ASSERT_TRUE(w.WaitForLeader(c));
  NodeId old_leader = w.LeaderOf(c);
  w.Crash(old_leader);
  ASSERT_TRUE(w.WaitForLeader(c));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(w.Put(c, "k" + std::to_string(i), "v").ok());
  }
  w.Restart(old_leader);
  ExpectConverged(w, c);
  EXPECT_EQ(harness::KvStoreOf(w.node(old_leader)).size(), 5u);
  // Exactly one leader afterwards.
  w.RunFor(kSecond);
  int leaders = 0;
  for (NodeId id : c) {
    if (w.node(id).IsLeader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

}  // namespace
}  // namespace recraft::test
