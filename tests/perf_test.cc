// Performance-model tests: cost composition, the paper-calibrated latency
// targets (Table 2), throughput bottleneck arithmetic (Fig. 7), and the
// middlebox profiler.
#include <gtest/gtest.h>

#include "mbox/middleboxes.h"
#include "perf/harness.h"

namespace gallium::perf {
namespace {

TEST(CostModel, CyclesMonotonicInOpsAndBytes) {
  CostModel cost;
  telemetry::OpCounts none;
  telemetry::OpCounts some;
  some.map_lookups = 2;
  some.alu_ops = 10;
  EXPECT_GT(cost.PacketCycles(some, 100, 0), cost.PacketCycles(none, 100, 0));
  EXPECT_GT(cost.PacketCycles(none, 1500, 0), cost.PacketCycles(none, 100, 0));
}

TEST(CostModel, PayloadScanScalesWithBytes) {
  CostModel cost;
  telemetry::OpCounts dpi;
  dpi.payload_ops = 1;
  const double small = cost.PacketCycles(dpi, 100, 100);
  const double large = cost.PacketCycles(dpi, 100, 1400);
  EXPECT_GT(large, small + 500);
}

TEST(CostModel, WireTimeMatchesLineRate) {
  CostModel cost;
  // 1500B at 100 Gbps = 0.12 us.
  EXPECT_NEAR(cost.WireUs(1500), 0.12, 0.001);
}

TEST(Latency, FastClickLandsNearPaperValues) {
  CostModel cost;
  telemetry::OpCounts stats;
  stats.map_lookups = 1;
  stats.header_ops = 6;
  stats.alu_ops = 4;
  stats.branches = 3;
  const double us = FastClickLatencyUs(cost, stats, 118);
  EXPECT_GT(us, 21.0);
  EXPECT_LT(us, 25.0);  // paper: 22.45-23.16 us
}

TEST(Latency, OffloadedLandsNearPaperValues) {
  CostModel cost;
  const double us = OffloadedFastPathLatencyUs(cost, 118);
  EXPECT_GT(us, 14.0);
  EXPECT_LT(us, 17.0);  // paper: 14.80-15.98 us
}

TEST(Latency, ReductionIsAboutThirtyPercent) {
  CostModel cost;
  telemetry::OpCounts stats;
  stats.map_lookups = 1;
  stats.header_ops = 5;
  const double fc = FastClickLatencyUs(cost, stats, 118);
  const double ga = OffloadedFastPathLatencyUs(cost, 118);
  EXPECT_NEAR(1.0 - ga / fc, 0.31, 0.05);
}

TEST(Throughput, ClickScalesWithCores) {
  CostModel cost;
  telemetry::OpCounts stats;
  stats.map_lookups = 1;
  const double c1 = ClickThroughputGbps(cost, stats, 500, 1);
  const double c2 = ClickThroughputGbps(cost, stats, 500, 2);
  const double c4 = ClickThroughputGbps(cost, stats, 500, 4);
  EXPECT_NEAR(c2, 2 * c1, 0.01 * c2);
  EXPECT_NEAR(c4, 4 * c1, 0.01 * c4);
}

TEST(Throughput, ClickCappedByLineRate) {
  CostModel cost;
  telemetry::OpCounts trivial;
  const double gbps = ClickThroughputGbps(cost, trivial, 1500, 64);
  EXPECT_LE(gbps, 100.0);
}

TEST(Throughput, OffloadedCappedBySenderAtSmallPackets) {
  CostModel cost;
  MiddleboxProfile profile;
  profile.fast_path_fraction = 1.0;
  const double gbps = OffloadedThroughputGbps(cost, profile, 100);
  // sender_pps_millions * 100B * 8 = 40 Gbps at the default 50 Mpps.
  EXPECT_NEAR(gbps, cost.sender_pps_millions * 1e6 * 100 * 8 / 1e9, 0.5);
}

TEST(Throughput, SlowPathThrottlesWhenServerSaturates) {
  CostModel cost;
  MiddleboxProfile profile;
  profile.fast_path_fraction = 0.5;  // half the packets hit one core
  profile.server_slow_stats.map_updates = 2;
  const double throttled = OffloadedThroughputGbps(cost, profile, 1500);
  profile.fast_path_fraction = 1.0;
  const double free = OffloadedThroughputGbps(cost, profile, 1500);
  EXPECT_LT(throttled, free * 0.5);
}

TEST(Profiler, NatProfileMatchesPaperCharacteristics) {
  auto profile =
      ProfileMiddlebox([] { return mbox::BuildMazuNat(); }, 20);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  // §6.3: "only 0.1% of the packets in TCP flows are processed by the
  // middlebox server" — long flows, ~2 slow packets each.
  EXPECT_GT(profile->fast_path_fraction, 0.99);
  EXPECT_GT(profile->baseline_stats.map_lookups, 0);
  EXPECT_GT(profile->mean_sync_latency_us, 50.0);
  EXPECT_GT(profile->sync_per_slow_packet, 0.0);
}

TEST(Profiler, FullyOffloadedMiddleboxHasNoSlowPackets) {
  auto profile = ProfileMiddlebox([] { return mbox::BuildProxy(); }, 10);
  ASSERT_TRUE(profile.ok());
  EXPECT_DOUBLE_EQ(profile->fast_path_fraction, 1.0);
  EXPECT_EQ(profile->server_slow_stats.insts, 0);
}

}  // namespace
}  // namespace gallium::perf
