// Unit tests for the common substrate: key ranges, status/result, RNG,
// codec, metrics and epoch-term arithmetic.
#include <gtest/gtest.h>

#include "common/codec.h"
#include "common/key_range.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "raft/epoch_term.h"

namespace recraft {
namespace {

TEST(KeyRange, FullContainsEverything) {
  KeyRange full = KeyRange::Full();
  EXPECT_TRUE(full.Contains(""));
  EXPECT_TRUE(full.Contains("zzz"));
  EXPECT_FALSE(full.empty());
}

TEST(KeyRange, HalfOpenSemantics) {
  KeyRange r("b", "m");
  EXPECT_TRUE(r.Contains("b"));
  EXPECT_TRUE(r.Contains("lzz"));
  EXPECT_FALSE(r.Contains("m"));
  EXPECT_FALSE(r.Contains("a"));
}

TEST(KeyRange, EmptyRange) {
  EXPECT_TRUE(KeyRange::Empty().empty());
  EXPECT_FALSE(KeyRange::Empty().Contains("anything"));
}

TEST(KeyRange, ContainsRange) {
  KeyRange outer("a", "z");
  EXPECT_TRUE(outer.ContainsRange(KeyRange("b", "c")));
  EXPECT_TRUE(outer.ContainsRange(KeyRange("a", "z")));
  EXPECT_FALSE(outer.ContainsRange(KeyRange("a", "")));  // inf hi
  EXPECT_TRUE(KeyRange::Full().ContainsRange(KeyRange("a", "")));
}

TEST(KeyRange, Overlaps) {
  EXPECT_TRUE(KeyRange("a", "m").Overlaps(KeyRange("l", "z")));
  EXPECT_FALSE(KeyRange("a", "m").Overlaps(KeyRange("m", "z")));  // adjacent
  EXPECT_TRUE(KeyRange("a", "").Overlaps(KeyRange("zzz", "")));
}

TEST(KeyRange, SplitAtProducesPartition) {
  auto parts = KeyRange::Full().SplitAt({"h", "p"});
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 3u);
  EXPECT_TRUE((*parts)[0].Contains("a"));
  EXPECT_TRUE((*parts)[1].Contains("h"));
  EXPECT_TRUE((*parts)[1].Contains("oz"));
  EXPECT_TRUE((*parts)[2].Contains("p"));
  EXPECT_TRUE((*parts)[2].Contains("zzzz"));
  // Disjoint and adjacent.
  EXPECT_FALSE((*parts)[0].Overlaps((*parts)[1]));
  EXPECT_TRUE((*parts)[0].AdjacentBefore((*parts)[1]));
  EXPECT_TRUE((*parts)[1].AdjacentBefore((*parts)[2]));
}

TEST(KeyRange, SplitRejectsBadKeys) {
  EXPECT_FALSE(KeyRange::Full().SplitAt({}).ok());
  EXPECT_FALSE(KeyRange::Full().SplitAt({"p", "h"}).ok());  // not increasing
  EXPECT_FALSE(KeyRange("h", "p").SplitAt({"a"}).ok());     // outside
  EXPECT_FALSE(KeyRange("h", "p").SplitAt({"p"}).ok());     // at hi
  EXPECT_FALSE(KeyRange("h", "p").SplitAt({"h"}).ok());     // at lo
}

TEST(KeyRange, MergeAdjacentAnyOrder) {
  auto parts = KeyRange::Full().SplitAt({"h", "p"});
  ASSERT_TRUE(parts.ok());
  auto merged =
      KeyRange::MergeAdjacent({(*parts)[2], (*parts)[0], (*parts)[1]});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, KeyRange::Full());
}

TEST(KeyRange, MergeRejectsGaps) {
  EXPECT_FALSE(
      KeyRange::MergeAdjacent({KeyRange("a", "b"), KeyRange("c", "d")}).ok());
}

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(OkStatus().ok());
  Status s = Rejected("because");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kRejected);
  EXPECT_EQ(s.ToString(), "REJECTED: because");
}

TEST(ResultTest, ValueAndError) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  Result<int> bad(NotFound("x"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Code::kNotFound);
  EXPECT_EQ(bad.value_or(3), 3);
}

TEST(RngTest, DeterministicStreams) {
  Rng a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool diff = false;
  Rng a2(1);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) diff = true;
  }
  EXPECT_TRUE(diff);
}

TEST(RngTest, UniformWithinBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Uniform(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, ChanceIsRoughlyCalibrated) {
  Rng r(4);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (r.Chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(CodecTest, RoundTripAllTypes) {
  Encoder enc;
  codec::Write(enc, uint8_t{7}, uint32_t{123456}, uint64_t{0xdeadbeefcafeULL},
               true, std::string("hello"), std::string());
  EXPECT_EQ(enc.size(), codec::Size(uint8_t{7}, uint32_t{123456},
                                    uint64_t{0xdeadbeefcafeULL}, true,
                                    std::string("hello"), std::string()));
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  bool b = false;
  std::string hello;
  std::string empty = "x";
  EXPECT_TRUE(codec::ReadAll(Decoder(enc.buffer()), u8, u32, u64, b, hello,
                             empty)
                  .ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 0xdeadbeefcafeULL);
  EXPECT_TRUE(b);
  EXPECT_EQ(hello, "hello");
  EXPECT_EQ(empty, "");
}

TEST(CodecTest, TruncationDetected) {
  const std::vector<uint8_t> bytes = codec::Encode(uint64_t{1});
  std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + 4);
  uint64_t v = 0;
  EXPECT_FALSE(codec::ReadAll(Decoder(cut), v).ok());
}

TEST(CodecTest, FirstErrorSticksAndCountsAreBounded) {
  // A string claiming 2^32-1 bytes in an 8-byte input fails before any
  // allocation, and the fields after it read as zero.
  const std::vector<uint8_t> bytes = codec::Encode(uint32_t{0xffffffffu},
                                                   uint32_t{5});
  Decoder dec(bytes);
  std::string s;
  uint32_t after = 9;
  EXPECT_FALSE(codec::Read(dec, s, after).ok());
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(after, 0u);
}

TEST(Metrics, LatencyPercentiles) {
  LatencyRecorder r;
  for (Duration d = 1; d <= 100; ++d) r.Record(d);
  EXPECT_EQ(r.count(), 100u);
  EXPECT_NEAR(r.MeanUs(), 50.5, 0.01);
  EXPECT_EQ(r.Min(), 1u);
  EXPECT_EQ(r.Max(), 100u);
  EXPECT_NEAR(static_cast<double>(r.Percentile(50)), 50, 1);
  EXPECT_NEAR(static_cast<double>(r.Percentile(99)), 99, 1);
}

TEST(Metrics, ThroughputWindows) {
  ThroughputSeries s(kSecond);
  s.Record(100 * kMillisecond);
  s.Record(200 * kMillisecond);
  s.Record(1500 * kMillisecond);
  EXPECT_DOUBLE_EQ(s.Rate(0), 2.0);
  EXPECT_DOUBLE_EQ(s.Rate(1), 1.0);
  EXPECT_DOUBLE_EQ(s.Rate(2), 0.0);
  EXPECT_EQ(s.NumWindows(), 2u);
}

TEST(Metrics, ThroughputSparseWindows) {
  ThroughputSeries s(kSecond);
  s.Record(5 * kSecond + 1);  // first record far from t=0
  s.Record(100 * kMillisecond, 3);
  EXPECT_DOUBLE_EQ(s.Rate(0), 3.0);
  EXPECT_DOUBLE_EQ(s.Rate(3), 0.0);
  EXPECT_DOUBLE_EQ(s.Rate(5), 1.0);
  EXPECT_DOUBLE_EQ(s.Rate(99), 0.0);  // beyond the series: zero, no growth
  EXPECT_EQ(s.NumWindows(), 6u);
}

TEST(Metrics, CounterSetInternedAndStringViewsAgree) {
  CounterSet c;
  CounterSet::Id sent = c.Intern("net.sent");
  EXPECT_EQ(sent, c.Intern("net.sent"));  // idempotent
  c.Add(sent);
  c.Add(sent, 4);
  c.Add("net.sent");  // string API lands on the same counter
  EXPECT_EQ(c.Get(sent), 6u);
  EXPECT_EQ(c.Get("net.sent"), 6u);
  EXPECT_EQ(c.Get("never.touched"), 0u);
}

TEST(Metrics, CounterSetSnapshotIsNameSorted) {
  CounterSet c;
  c.Add("b.two", 2);
  c.Add("a.one");
  c.Intern("z.zero");  // interned but never incremented: reports 0
  auto all = c.all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all.begin()->first, "a.one");
  EXPECT_EQ(all["b.two"], 2u);
  EXPECT_EQ(all["z.zero"], 0u);
}

TEST(EpochTerm, OrderingAcrossEpochs) {
  using raft::EpochTerm;
  EpochTerm low = EpochTerm::Make(0, 1000);
  EpochTerm high = EpochTerm::Make(1, 0);
  EXPECT_LT(low, high);
  EXPECT_EQ(high.epoch(), 1u);
  EXPECT_EQ(high.term(), 0u);
  EXPECT_EQ(low.NextTerm().term(), 1001u);
  EXPECT_EQ(low.NextEpoch(), high);
  EXPECT_EQ(EpochTerm::Make(3, 7).ToString(), "e3t7");
}

TEST(EpochTerm, RawRoundTrip) {
  using raft::EpochTerm;
  EpochTerm et = EpochTerm::Make(42, 4242);
  EXPECT_EQ(EpochTerm(et.raw()).epoch(), 42u);
  EXPECT_EQ(EpochTerm(et.raw()).term(), 4242u);
}

}  // namespace
}  // namespace recraft
