#include "audit/ring.h"

#include <gtest/gtest.h>

#include <string>

namespace overhaul::audit {
namespace {

using util::StringTable;

BinRecord make(std::int64_t t, std::uint32_t comm_id = 0,
               std::uint32_t detail_id = 0) {
  BinRecord r;
  r.time_ns = t;
  r.comm_id = comm_id;
  r.detail_id = detail_id;
  return r;
}

TEST(BinRecord, LayoutIsWireFormat) {
  EXPECT_EQ(sizeof(BinRecord), kBinRecordSize);
  EXPECT_EQ(sizeof(BinRecord), 64u);
  EXPECT_TRUE(std::is_trivially_copyable_v<BinRecord>);
}

TEST(StringTable, InternIsIdempotent) {
  StringTable tab;
  const auto a = tab.intern("videoconf");
  const auto b = tab.intern("/dev/video0");
  EXPECT_NE(a, b);
  EXPECT_EQ(tab.intern("videoconf"), a);
  EXPECT_EQ(tab.intern("/dev/video0"), b);
  EXPECT_EQ(tab.get(a), "videoconf");
  EXPECT_EQ(tab.get(b), "/dev/video0");
}

TEST(StringTable, IdZeroIsEmptyString) {
  StringTable tab;
  EXPECT_EQ(tab.intern(""), 0u);
  EXPECT_EQ(tab.get(0), "");
  EXPECT_EQ(tab.size(), 1u);
}

TEST(StringTable, OutOfRangeGetIsEmpty) {
  StringTable tab;
  EXPECT_EQ(tab.get(999), "");
}

TEST(StringTable, SurvivesGrowth) {
  // Push well past the initial slot count so grow() rehashes at least twice;
  // every id and every view must stay stable.
  StringTable tab;
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 1000; ++i)
    ids.push_back(tab.intern("string-" + std::to_string(i)));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(tab.intern("string-" + std::to_string(i)), ids[i]);
    EXPECT_EQ(tab.get(ids[i]), "string-" + std::to_string(i));
  }
}

TEST(StringTable, ClearKeepsOnlyEmptyString) {
  StringTable tab;
  tab.intern("a");
  tab.intern("b");
  tab.clear();
  EXPECT_EQ(tab.size(), 1u);
  EXPECT_EQ(tab.bytes(), 0u);
  EXPECT_EQ(tab.intern("c"), 1u);
}

TEST(Ring, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Ring(1000).capacity(), 1024u);
  EXPECT_EQ(Ring(1024).capacity(), 1024u);
  EXPECT_EQ(Ring(1).capacity(), 1u);
}

TEST(Ring, FillsThenOverwritesOldest) {
  Ring ring(4);
  for (std::int64_t t = 0; t < 4; ++t) ring.append(make(t));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 0u);
  ring.append(make(4));
  ring.append(make(5));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_appended(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);
  // Oldest-first view after wraparound.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(ring.at(i).time_ns, static_cast<std::int64_t>(i + 2));
}

TEST(Ring, ZeroCapacityCountsAndDropsEveryAppend) {
  // The edge the text log used to mishandle: capacity 0 must neither store
  // nor grow, but the lifetime totals still advance.
  Ring ring(0);
  EXPECT_EQ(ring.capacity(), 0u);
  for (std::int64_t t = 0; t < 100; ++t) ring.append(make(t));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.total_appended(), 100u);
  EXPECT_EQ(ring.dropped(), 100u);
  EXPECT_EQ(ring.memory_bytes(), 0u);
}

TEST(Ring, SetCapacityZeroThenAppend) {
  Ring ring(4);
  for (std::int64_t t = 0; t < 4; ++t) ring.append(make(t));
  ring.set_capacity(0);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 4u);  // the four evicted records
  ring.append(make(9));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_appended(), 5u);
  EXPECT_EQ(ring.dropped(), 5u);
}

TEST(Ring, ShrinkKeepsNewestRecords) {
  Ring ring(8);
  for (std::int64_t t = 0; t < 8; ++t) ring.append(make(t));
  ring.set_capacity(2);
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.at(0).time_ns, 6);
  EXPECT_EQ(ring.at(1).time_ns, 7);
  EXPECT_EQ(ring.dropped(), 6u);
  // Appends keep working against the new bound.
  ring.append(make(8));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.at(1).time_ns, 8);
}

TEST(Ring, GrowKeepsEverything) {
  Ring ring(2);
  ring.append(make(0));
  ring.append(make(1));
  ring.append(make(2));  // evicts t=0
  ring.set_capacity(8);
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.at(0).time_ns, 1);
  EXPECT_EQ(ring.at(1).time_ns, 2);
  ring.append(make(3));
  EXPECT_EQ(ring.size(), 3u);
}

TEST(Ring, ClearResetsTotals) {
  Ring ring(4);
  const auto id = ring.intern("comm");
  ring.append(make(1, id));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_appended(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  // Intern table was reset too: the next intern reuses id 1.
  EXPECT_EQ(ring.intern("other"), 1u);
}

TEST(Ring, InternedStringsResolve) {
  Ring ring(4);
  const auto comm = ring.intern("browser");
  const auto detail = ring.intern("selection:PRIMARY");
  ring.append(make(1, comm, detail));
  EXPECT_EQ(ring.string_at(ring.at(0).comm_id), "browser");
  EXPECT_EQ(ring.string_at(ring.at(0).detail_id), "selection:PRIMARY");
}

}  // namespace
}  // namespace overhaul::audit
