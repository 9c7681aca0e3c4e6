// Capacity and LPM edge cases for the switch match-action table: full-table
// inserts, the longest-prefix tie between nested prefixes, and staged
// deletions falling through to shorter prefixes mid-sync.
#include <gtest/gtest.h>

#include "switchsim/table.h"
#include "util/status.h"

namespace gallium::switchsim {
namespace {

TEST(ExactMatchTable, InsertMainRejectsWhenFull) {
  ExactMatchTable table("t", /*key_words=*/1, /*value_words=*/1,
                        /*max_entries=*/8);
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(table.InsertMain({k}, {k * 10}).ok()) << k;
  }
  EXPECT_EQ(table.size(), 8u);

  // One past capacity fails without eviction mode...
  const Status overflow = table.InsertMain({100}, {1});
  EXPECT_EQ(overflow.code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(overflow.ToString().find("table full"), std::string::npos);

  // ...but overwriting a resident key is not a capacity event.
  EXPECT_TRUE(table.InsertMain({3}, {99}).ok());
  TableValue value;
  EXPECT_TRUE(table.Lookup({3}, &value));
  EXPECT_EQ(value, TableValue({99}));
  EXPECT_EQ(table.size(), 8u);
}

TEST(ExactMatchTable, ApplyStagedRespectsCapacity) {
  ExactMatchTable table("t", 1, 1, /*max_entries=*/4);
  for (uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(table.InsertMain({k}, {k}).ok());
  }
  ASSERT_TRUE(table.Stage({7}, TableValue{70}).ok());
  const Status full = table.ApplyStagedToMain();
  EXPECT_EQ(full.code(), ErrorCode::kResourceExhausted);

  // A staged delete + insert of equal cardinality flushes cleanly.
  ASSERT_TRUE(table.Stage({0}, std::nullopt).ok());
  ASSERT_TRUE(table.Stage({7}, TableValue{70}).ok());
  EXPECT_TRUE(table.ApplyStagedToMain().ok());
  EXPECT_EQ(table.size(), 4u);
  TableValue value;
  EXPECT_FALSE(table.Lookup({0}, &value));
  EXPECT_TRUE(table.Lookup({7}, &value));
  EXPECT_EQ(value, TableValue({70}));
}

TEST(ExactMatchTable, StageRejectsWhenShadowFull) {
  // Shadow capacity is max(16, max_entries / 4) = 16 here.
  ExactMatchTable table("t", 1, 1, /*max_entries=*/8);
  for (uint64_t k = 0; k < 16; ++k) {
    ASSERT_TRUE(table.Stage({k}, TableValue{k}).ok()) << k;
  }
  const Status full = table.Stage({999}, TableValue{1});
  EXPECT_EQ(full.code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(full.ToString().find("write-back"), std::string::npos);
  // Restaging a key already in the shadow is allowed at capacity.
  EXPECT_TRUE(table.Stage({5}, TableValue{55}).ok());
}

TEST(ExactMatchTable, FifoEvictionKeepsInsertionOrder) {
  ExactMatchTable t("cache", 1, 1, 4);
  t.EnableFifoEviction();
  for (uint64_t k = 0; k < 4; ++k) ASSERT_TRUE(t.InsertMain({k}, {k}).ok());
  // A control-plane delete leaves a stale FIFO slot that eviction skips.
  ASSERT_TRUE(t.Stage({0}, std::nullopt).ok());
  ASSERT_TRUE(t.ApplyStagedToMain().ok());
  ASSERT_TRUE(t.InsertMain({4}, {4}).ok());
  EXPECT_EQ(t.evictions(), 0u);
  TableValue v;
  for (uint64_t k = 5; k < 200; ++k) {
    ASSERT_TRUE(t.InsertMain({k}, {k}).ok());
    ASSERT_EQ(t.size(), 4u);
    ASSERT_EQ(t.evictions(), k - 4);
    // Exactly the four newest keys stay resident.
    EXPECT_FALSE(t.Lookup({k - 4}, &v)) << k;
    for (uint64_t live = k - 3; live <= k; ++live) {
      EXPECT_TRUE(t.Lookup({live}, &v)) << k << " " << live;
    }
  }
}

TEST(ExactMatchTable, LpmLongestPrefixWins) {
  ExactMatchTable table("routes", 1, 1, 16, ExactMatchTable::MatchKind::kLpm);
  // Nested prefixes over 10.1.0.0: /8, /16, /24 plus a default route.
  ASSERT_TRUE(table.InsertMain({0x00000000, 0}, {1}).ok());
  ASSERT_TRUE(table.InsertMain({0x0a000000, 8}, {8}).ok());
  ASSERT_TRUE(table.InsertMain({0x0a010000, 16}, {16}).ok());
  ASSERT_TRUE(table.InsertMain({0x0a010200, 24}, {24}).ok());

  TableValue value;
  ASSERT_TRUE(table.Lookup({0x0a010203}, &value));  // 10.1.2.3 -> /24
  EXPECT_EQ(value, TableValue({24}));
  ASSERT_TRUE(table.Lookup({0x0a01ff01}, &value));  // 10.1.255.1 -> /16
  EXPECT_EQ(value, TableValue({16}));
  ASSERT_TRUE(table.Lookup({0x0aff0001}, &value));  // 10.255.0.1 -> /8
  EXPECT_EQ(value, TableValue({8}));
  ASSERT_TRUE(table.Lookup({0x0b000001}, &value));  // 11.0.0.1 -> default
  EXPECT_EQ(value, TableValue({1}));
}

TEST(ExactMatchTable, LpmStagedDeleteFallsThroughToShorterPrefix) {
  ExactMatchTable table("routes", 1, 1, 16, ExactMatchTable::MatchKind::kLpm);
  ASSERT_TRUE(table.InsertMain({0x0a000000, 8}, {8}).ok());
  ASSERT_TRUE(table.InsertMain({0x0a010000, 16}, {16}).ok());

  // Stage a delete of the /16; while the write-back window is open the
  // lookup must fall through to the /8, not miss.
  ASSERT_TRUE(table.Stage({0x0a010000, 16}, std::nullopt).ok());
  TableValue value;
  ASSERT_TRUE(table.Lookup({0x0a010203}, &value));
  EXPECT_EQ(value, TableValue({16})) << "delete must stay staged until the "
                                        "write-back bit flips";

  table.SetUseWriteBack(true);
  ASSERT_TRUE(table.Lookup({0x0a010203}, &value));
  EXPECT_EQ(value, TableValue({8}));

  // After the flush the fallthrough is permanent.
  ASSERT_TRUE(table.ApplyStagedToMain().ok());
  table.SetUseWriteBack(false);
  ASSERT_TRUE(table.Lookup({0x0a010203}, &value));
  EXPECT_EQ(value, TableValue({8}));
  EXPECT_EQ(table.size(), 1u);
}

TEST(ExactMatchTable, LpmStagedOverrideWinsOverMain) {
  ExactMatchTable table("routes", 1, 1, 16, ExactMatchTable::MatchKind::kLpm);
  ASSERT_TRUE(table.InsertMain({0x0a010000, 16}, {16}).ok());
  ASSERT_TRUE(table.Stage({0x0a010000, 16}, TableValue{99}).ok());
  table.SetUseWriteBack(true);
  TableValue value;
  ASSERT_TRUE(table.Lookup({0x0a010203}, &value));
  EXPECT_EQ(value, TableValue({99}));
}

}  // namespace
}  // namespace gallium::switchsim
