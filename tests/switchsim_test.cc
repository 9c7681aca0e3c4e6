// Switch simulator tests: exact-match tables, the write-back atomic-update
// protocol of §4.3.3, the control-plane latency model of Table 3, switch
// construction from a partition plan, and resource accounting.
#include <gtest/gtest.h>

#include "frontend/middlebox_builder.h"
#include "mbox/middleboxes.h"
#include "partition/partitioner.h"
#include "switchsim/switch.h"
#include "switchsim/table.h"

namespace gallium::switchsim {
namespace {

// --- ExactMatchTable ------------------------------------------------------------

TEST(Table, LookupMissZeroFills) {
  ExactMatchTable table("t", 1, 2, 16);
  TableValue value{7, 7};
  EXPECT_FALSE(table.Lookup({1}, &value));
  EXPECT_EQ(value, (TableValue{0, 0}));
}

TEST(Table, InsertMainThenLookup) {
  ExactMatchTable table("t", 2, 1, 16);
  ASSERT_TRUE(table.InsertMain({1, 2}, {42}).ok());
  TableValue value;
  EXPECT_TRUE(table.Lookup({1, 2}, &value));
  EXPECT_EQ(value[0], 42u);
  EXPECT_FALSE(table.Lookup({2, 1}, &value));
}

TEST(Table, RejectsArityMismatch) {
  ExactMatchTable table("t", 2, 1, 16);
  EXPECT_FALSE(table.InsertMain({1}, {42}).ok());
  EXPECT_FALSE(table.InsertMain({1, 2}, {42, 43}).ok());
  EXPECT_FALSE(table.Stage({1}, TableValue{42}).ok());
}

TEST(Table, EnforcesCapacity) {
  ExactMatchTable table("t", 1, 1, 2);
  ASSERT_TRUE(table.InsertMain({1}, {1}).ok());
  ASSERT_TRUE(table.InsertMain({2}, {2}).ok());
  EXPECT_FALSE(table.InsertMain({3}, {3}).ok());
  // Overwriting an existing key is fine at capacity.
  EXPECT_TRUE(table.InsertMain({1}, {9}).ok());
}

TEST(Table, StagedEntriesInvisibleUntilBitFlip) {
  ExactMatchTable table("t", 1, 1, 16);
  ASSERT_TRUE(table.Stage({5}, TableValue{55}).ok());
  TableValue value;
  EXPECT_FALSE(table.Lookup({5}, &value))
      << "staged entry must not be visible before the flip";
  table.SetUseWriteBack(true);
  EXPECT_TRUE(table.Lookup({5}, &value));
  EXPECT_EQ(value[0], 55u);
}

TEST(Table, StagedDeletionHidesMainEntry) {
  ExactMatchTable table("t", 1, 1, 16);
  ASSERT_TRUE(table.InsertMain({5}, {55}).ok());
  ASSERT_TRUE(table.Stage({5}, std::nullopt).ok());
  TableValue value;
  EXPECT_TRUE(table.Lookup({5}, &value)) << "visible until the flip";
  table.SetUseWriteBack(true);
  EXPECT_FALSE(table.Lookup({5}, &value)) << "deletion visible after flip";
}

TEST(Table, WriteBackOverridesMain) {
  ExactMatchTable table("t", 1, 1, 16);
  ASSERT_TRUE(table.InsertMain({5}, {1}).ok());
  ASSERT_TRUE(table.Stage({5}, TableValue{2}).ok());
  table.SetUseWriteBack(true);
  TableValue value;
  EXPECT_TRUE(table.Lookup({5}, &value));
  EXPECT_EQ(value[0], 2u) << "write-back entry wins during the window";
}

TEST(Table, ApplyStagedToMainThenClear) {
  ExactMatchTable table("t", 1, 1, 16);
  ASSERT_TRUE(table.InsertMain({1}, {10}).ok());
  ASSERT_TRUE(table.Stage({1}, std::nullopt).ok());   // delete 1
  ASSERT_TRUE(table.Stage({2}, TableValue{20}).ok());  // insert 2
  table.SetUseWriteBack(true);
  ASSERT_TRUE(table.ApplyStagedToMain().ok());
  table.SetUseWriteBack(false);

  TableValue value;
  EXPECT_FALSE(table.Lookup({1}, &value));
  EXPECT_TRUE(table.Lookup({2}, &value));
  EXPECT_EQ(value[0], 20u);
  EXPECT_EQ(table.staged_entries(), 0u);
}

TEST(Table, ShadowCapacityBounded) {
  ExactMatchTable table("t", 1, 1, 16);  // shadow cap = max(16, 16/4) = 16
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(table.Stage({i}, TableValue{i}).ok());
  }
  EXPECT_FALSE(table.Stage({99}, TableValue{1}).ok())
      << "write-back table is smaller than the main table (§4.3.3)";
}

// The full §4.3.3 protocol, step by step, observing data-plane visibility
// at every point: this is the atomic-update correctness argument.
TEST(Table, AtomicUpdateProtocolStepByStep) {
  ExactMatchTable table("nat", 1, 1, 1024);
  ASSERT_TRUE(table.InsertMain({1}, {100}).ok());

  // Step 1: server stages updates; data plane still sees the old state.
  ASSERT_TRUE(table.Stage({1}, TableValue{200}).ok());
  ASSERT_TRUE(table.Stage({2}, TableValue{300}).ok());
  TableValue v;
  EXPECT_TRUE(table.Lookup({1}, &v));
  EXPECT_EQ(v[0], 100u);
  EXPECT_FALSE(table.Lookup({2}, &v));

  // Step 2: the bit flip makes ALL staged entries visible at once.
  table.SetUseWriteBack(true);
  EXPECT_TRUE(table.Lookup({1}, &v));
  EXPECT_EQ(v[0], 200u);
  EXPECT_TRUE(table.Lookup({2}, &v));
  EXPECT_EQ(v[0], 300u);

  // Step 3: main-table apply + flip back; the view is unchanged.
  ASSERT_TRUE(table.ApplyStagedToMain().ok());
  table.SetUseWriteBack(false);
  EXPECT_TRUE(table.Lookup({1}, &v));
  EXPECT_EQ(v[0], 200u);
  EXPECT_TRUE(table.Lookup({2}, &v));
  EXPECT_EQ(v[0], 300u);
}

// --- Latency model ----------------------------------------------------------------

TEST(LatencyModel, MatchesTable3Shape) {
  ControlPlaneLatencyModel model;
  // Means without jitter.
  EXPECT_NEAR(model.UpdateLatencyUs(1, nullptr), 135.0, 1.0);
  EXPECT_NEAR(model.UpdateLatencyUs(2, nullptr), 270.0, 1.0);
  EXPECT_NEAR(model.UpdateLatencyUs(4, nullptr), 371.0, 2.0);
  EXPECT_EQ(model.UpdateLatencyUs(0, nullptr), 0.0);
  // Sub-linear beyond two tables.
  const double l2 = model.UpdateLatencyUs(2, nullptr);
  const double l4 = model.UpdateLatencyUs(4, nullptr);
  EXPECT_LT(l4, 2 * l2);
}

TEST(LatencyModel, JitterStaysPositiveAndCentered) {
  ControlPlaneLatencyModel model;
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 500; ++i) {
    const double l = model.UpdateLatencyUs(1, &rng);
    ASSERT_GT(l, 0.0);
    sum += l;
  }
  EXPECT_NEAR(sum / 500, 135.0, 6.0);
}

// --- Switch construction from a plan ---------------------------------------------

TEST(Switch, InstantiatesResidentStateOnly) {
  auto spec = mbox::BuildMiniLb();
  ASSERT_TRUE(spec.ok());
  partition::Partitioner partitioner(*spec->fn, {});
  auto plan = partitioner.Run();
  ASSERT_TRUE(plan.ok());
  auto sw = Switch::Create(*spec->fn, *plan, {});
  ASSERT_TRUE(sw.ok()) << sw.status().ToString();

  // The connection map is replicated -> a table exists.
  EXPECT_NE((*sw)->table(0), nullptr);
  const auto report = (*sw)->Resources();
  EXPECT_TRUE(report.within_limits);
  EXPECT_GE(report.num_tables, 1);
  EXPECT_GT(report.memory_bytes_used, 0u);
}

TEST(Switch, RejectsOverMemoryPlan) {
  auto spec = mbox::BuildMiniLb();
  ASSERT_TRUE(spec.ok());
  partition::SwitchConstraints constraints;
  partition::Partitioner partitioner(*spec->fn, constraints);
  auto plan = partitioner.Run();
  ASSERT_TRUE(plan.ok());
  // Shrink the budget below what the plan's tables need.
  constraints.memory_bytes = 100;
  auto sw = Switch::Create(*spec->fn, *plan, constraints);
  EXPECT_FALSE(sw.ok());
  EXPECT_EQ(sw.status().code(), ErrorCode::kResourceExhausted);
}

TEST(Switch, ApplyAtomicUpdateSyncsTablesAndRegisters) {
  auto spec = mbox::BuildMazuNat();
  ASSERT_TRUE(spec.ok());
  partition::Partitioner partitioner(*spec->fn, {});
  auto plan = partitioner.Run();
  ASSERT_TRUE(plan.ok());
  auto sw = Switch::Create(*spec->fn, *plan, {});
  ASSERT_TRUE(sw.ok());

  using MapMut = runtime::RecordingStateBackend::MapMutation;
  using GlobalMut = runtime::RecordingStateBackend::GlobalMutation;
  Rng rng(3);
  auto latency = (*sw)->ApplyAtomicUpdate(
      {MapMut{0, {10, 20}, {1024}, false}}, {GlobalMut{0, 1025}}, &rng);
  ASSERT_TRUE(latency.ok()) << latency.status().ToString();
  EXPECT_GT(*latency, 0.0);

  runtime::StateValue value;
  EXPECT_TRUE((*sw)->data_plane().MapLookup(0, {10, 20}, &value));
  EXPECT_EQ(value[0], 1024u);
  EXPECT_EQ((*sw)->data_plane().GlobalRead(0), 1025u);
  EXPECT_EQ((*sw)->sync_batches(), 1u);
}

TEST(Switch, MutationsToServerOnlyStateAreIgnored) {
  auto spec = mbox::BuildLoadBalancer();
  ASSERT_TRUE(spec.ok());
  partition::Partitioner partitioner(*spec->fn, {});
  auto plan = partitioner.Run();
  ASSERT_TRUE(plan.ok());
  auto sw = Switch::Create(*spec->fn, *plan, {});
  ASSERT_TRUE(sw.ok());

  // flow_created is server-only (no annotation); syncing it is a no-op.
  const ir::StateIndex created = spec->MapIndex("flow_created");
  using MapMut = runtime::RecordingStateBackend::MapMutation;
  Rng rng(3);
  auto latency = (*sw)->ApplyAtomicUpdate(
      {MapMut{created, {1, 2, 3, 4, 6}, {7}, false}}, {}, &rng);
  ASSERT_TRUE(latency.ok());
  EXPECT_EQ(*latency, 0.0) << "no resident table touched";
}

// A sync batch that overflows one table must apply nothing anywhere, and it
// must not leave a table reading its write-back shadow.
TEST(Switch, OverflowingSyncBatchAppliesNothing) {
  frontend::MiddleboxBuilder mb("two_tables");
  auto small = mb.DeclareMap("small", {ir::Width::kU32}, {ir::Width::kU32}, 16);
  auto big = mb.DeclareMap("big", {ir::Width::kU32}, {ir::Width::kU32}, 1024);
  auto& b = mb.b();
  const ir::Reg key = b.HeaderRead(ir::HeaderField::kIpSrc, "key");
  const auto in_small = small.Find({ir::R(key)}, "s");
  const auto in_big = big.Find({ir::R(key)}, "b");
  mb.If(ir::R(b.Alu(ir::AluOp::kOr, ir::R(in_small.found), ir::R(in_big.found),
                    "hit")),
        [&] { b.Drop(); });
  small.Insert({ir::R(key)}, {ir::Imm(1)});
  big.Insert({ir::R(key)}, {ir::Imm(2)});
  b.Send(ir::Imm(1));
  auto fn = std::move(mb).Finish();
  ASSERT_TRUE(fn.ok()) << fn.status().ToString();
  partition::Partitioner partitioner(**fn, {});
  auto plan = partitioner.Run();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto sw = Switch::Create(**fn, *plan, {});
  ASSERT_TRUE(sw.ok()) << sw.status().ToString();
  ASSERT_NE((*sw)->table(small.index()), nullptr);
  ASSERT_NE((*sw)->table(big.index()), nullptr);

  using MapMut = runtime::RecordingStateBackend::MapMutation;
  std::vector<MapMut> fill;
  for (uint64_t k = 0; k < 16; ++k) fill.push_back({small.index(), {k}, {k}});
  Rng rng(7);
  ASSERT_TRUE((*sw)->ApplyAtomicUpdate(fill, {}, &rng).ok());

  // Key 16 would be the 17th small entry. The overwrite of key 3 is staged
  // ahead of it, so a half-applied batch would leak that overwrite.
  const std::vector<MapMut> overflow = {
      {big.index(), {100}, {1}},
      {small.index(), {3}, {33}},
      {small.index(), {16}, {16}},
  };
  auto failed = (*sw)->ApplyAtomicUpdate(overflow, {}, &rng);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), ErrorCode::kResourceExhausted);

  for (ir::StateIndex map : {small.index(), big.index()}) {
    EXPECT_FALSE((*sw)->table(map)->use_write_back()) << map;
    EXPECT_EQ((*sw)->table(map)->staged_entries(), 0u) << map;
  }
  EXPECT_EQ((*sw)->table(big.index())->size(), 0u);
  EXPECT_EQ((*sw)->table(small.index())->size(), 16u);
  runtime::StateValue value;
  EXPECT_FALSE((*sw)->data_plane().MapLookup(big.index(), {100}, &value));
  ASSERT_TRUE((*sw)->data_plane().MapLookup(small.index(), {3}, &value));
  EXPECT_EQ(value[0], 3u) << "the overwrite in the failed batch leaked";
  EXPECT_FALSE((*sw)->data_plane().MapLookup(small.index(), {16}, &value));
  EXPECT_EQ((*sw)->sync_batches(), 1u);

  // The next batch that fits applies normally.
  ASSERT_TRUE((*sw)->ApplyAtomicUpdate({{big.index(), {100}, {1}}}, {}, &rng)
                  .ok());
  EXPECT_TRUE((*sw)->data_plane().MapLookup(big.index(), {100}, &value));
  EXPECT_FALSE((*sw)->data_plane().MapLookup(small.index(), {16}, &value));
}

}  // namespace
}  // namespace gallium::switchsim
