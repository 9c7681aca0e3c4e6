// Tests for the multi-worker packet engine (src/engine/): the SPSC ring,
// RSS-style flow steering + director, the sharded-equals-single-core
// property over all five paper middleboxes, and the threaded execution
// mode's accounting.
#include <thread>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/spsc_ring.h"
#include "engine/steering.h"
#include "hop_trace.h"
#include "mbox/middleboxes.h"
#include "net/packet.h"
#include "util/rng.h"
#include "workload/churn.h"
#include "workload/packet_gen.h"

namespace gallium::engine {
namespace {

using runtime::OffloadedMiddlebox;
using runtime::Verdict;

// ---------------------------------------------------------------------------
// SPSC ring

TEST(SpscRingTest, FifoOrderAndCapacity) {
  SpscRing<int> ring(5);  // rounds up to 8
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.TryPush(int{i}));
  EXPECT_FALSE(ring.TryPush(99));  // full
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.TryPop(&v));  // empty
  EXPECT_TRUE(ring.EmptyForConsumer());
}

TEST(SpscRingTest, WrapsAcrossManyRefills) {
  SpscRing<uint32_t> ring(4);
  uint32_t next_push = 0, next_pop = 0, v = 0;
  for (int round = 0; round < 1000; ++round) {
    while (ring.TryPush(uint32_t{next_push})) ++next_push;
    while (ring.TryPop(&v)) {
      ASSERT_EQ(v, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_push, next_pop);
  EXPECT_GE(next_pop, 1000u);
}

// The satellite stress test: 10M items through a small ring with a real
// producer thread and a real consumer thread, checksummed on both sides.
// Any lost, duplicated, or reordered item diverges the sum/xor pair.
TEST(SpscRingTest, TenMillionItemChecksumStress) {
  constexpr uint64_t kItems = 10'000'000;
  SpscRing<uint64_t> ring(1024);

  uint64_t produced_sum = 0, produced_xor = 0;
  std::thread producer([&] {
    Rng rng(7);
    for (uint64_t i = 0; i < kItems; ++i) {
      const uint64_t item = rng.NextU64();
      produced_sum += item;
      produced_xor ^= item;
      while (!ring.TryPush(uint64_t{item})) {
        std::this_thread::yield();  // consumer is behind
      }
    }
  });

  uint64_t consumed = 0, consumed_sum = 0, consumed_xor = 0;
  uint64_t item = 0;
  while (consumed < kItems) {
    if (ring.TryPop(&item)) {
      consumed_sum += item;
      consumed_xor ^= item;
      ++consumed;
    } else {
      std::this_thread::yield();  // producer is behind
    }
  }
  producer.join();

  EXPECT_EQ(consumed, kItems);
  EXPECT_EQ(consumed_sum, produced_sum);
  EXPECT_EQ(consumed_xor, produced_xor);
  EXPECT_TRUE(ring.EmptyForConsumer());
}

// ---------------------------------------------------------------------------
// Flow steering

TEST(SteeringTest, HashIsSymmetric) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const net::FiveTuple ft = workload::RandomFlow(rng);
    EXPECT_EQ(SymmetricFlowHash(ft), SymmetricFlowHash(ft.Reversed()));
  }
}

TEST(SteeringTest, OwnerIsStableAndSymmetric) {
  FlowSteering steering(4);
  Rng rng(12);
  for (int i = 0; i < 500; ++i) {
    const net::FiveTuple ft = workload::RandomFlow(rng);
    const int owner = steering.OwnerOf(ft);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 4);
    EXPECT_EQ(owner, steering.OwnerOf(ft));             // stable
    EXPECT_EQ(owner, steering.OwnerOf(ft.Reversed()));  // both directions
  }
}

TEST(SteeringTest, HashSpreadsAcrossWorkers) {
  FlowSteering steering(4);
  Rng rng(13);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) {
    ++counts[steering.OwnerOf(workload::RandomFlow(rng))];
  }
  for (int c : counts) EXPECT_GT(c, 500) << "pathologically skewed RSS hash";
}

TEST(SteeringTest, PinOverridesHashAndSurvivesGrowth) {
  FlowSteering steering(8);
  Rng rng(14);
  // Pin far more flows than the initial table holds, forcing rehashes.
  std::vector<std::pair<net::FiveTuple, int>> pins;
  for (int i = 0; i < 1000; ++i) {
    const net::FiveTuple ft = workload::RandomFlow(rng);
    const int owner = i % 8;
    steering.Pin(ft, owner);
    pins.emplace_back(ft, owner);
  }
  EXPECT_EQ(steering.pinned_flows(), 1000u);
  for (const auto& [ft, owner] : pins) {
    EXPECT_EQ(steering.OwnerOf(ft), owner);
    EXPECT_EQ(steering.OwnerOf(ft.Reversed()), owner);
  }
}

// ---------------------------------------------------------------------------
// Sharded == single-core property

workload::Trace EquivalenceTrace(const std::string& mbox_name) {
  Rng rng(4242);
  workload::TraceOptions options;
  options.num_flows = 48;
  options.min_flow_bytes = 200;
  options.max_flow_bytes = 20000;
  options.udp_fraction = 0.25;
  options.ingress_port = mbox::kPortInternal;
  if (mbox_name == "TrojanDetector") {
    // Exercise the DPI slow path on a fraction of flows.
    options.marked_fraction = 0.25;
    options.marker = mbox::kPatternIrc;
  }
  return workload::MakeTrace(rng, options);
}

// Runs the same trace through a 1-worker and a 4-worker deterministic
// engine and requires bit-identical emitted packet sequences plus matching
// verdict counts. This is the property that makes the sharded engine a
// faithful execution of the paper's per-middlebox semantics: steering +
// core-local maps + hub-resident globals must be invisible to the traffic.
void CheckShardedEquivalence(Result<mbox::MiddleboxSpec> spec_or,
                             const std::string& name) {
  ASSERT_TRUE(spec_or.ok()) << spec_or.status().ToString();
  mbox::MiddleboxSpec spec = std::move(*spec_or);
  const workload::Trace trace = EquivalenceTrace(name);
  ASSERT_FALSE(trace.packets.empty());

  RunReport reports[2];
  std::vector<net::Packet> sinks[2];
  const int worker_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    EngineOptions options;
    options.workers = worker_counts[i];
    options.burst = 32;
    auto eng = Engine::Create(spec, options);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    reports[i] = (*eng)->Run(trace.packets, /*start_now_ms=*/1, &sinks[i]);
    (*eng)->Quiesce();
    EXPECT_EQ(reports[i].packets, trace.packets.size());
    EXPECT_EQ(reports[i].errors, 0u);
  }

  EXPECT_EQ(reports[0].sends, reports[1].sends) << name;
  EXPECT_EQ(reports[0].drops, reports[1].drops) << name;
  EXPECT_EQ(reports[0].fast_path, reports[1].fast_path) << name;

  ASSERT_EQ(sinks[0].size(), sinks[1].size()) << name;
  for (size_t i = 0; i < sinks[0].size(); ++i) {
    ASSERT_EQ(sinks[0][i].Serialize(), sinks[1][i].Serialize())
        << name << ": emitted packet " << i << " diverged\n  1w: "
        << sinks[0][i].ToString() << "\n  4w: " << sinks[1][i].ToString();
  }
}

TEST(ShardedEquivalenceTest, MazuNat) {
  CheckShardedEquivalence(mbox::BuildMazuNat(), "MazuNAT");
}

TEST(ShardedEquivalenceTest, LoadBalancer) {
  CheckShardedEquivalence(mbox::BuildLoadBalancer(), "LoadBalancer");
}

TEST(ShardedEquivalenceTest, Firewall) {
  std::vector<mbox::MapInitEntry> rules;
  for (uint32_t i = 0; i < 64; ++i) {
    rules.push_back(mbox::MapInitEntry{
        {0xc0a80000u + i, 0xac100000u + i, static_cast<uint64_t>(1024 + i),
         80ull, 6ull},
        {1}});
  }
  CheckShardedEquivalence(mbox::BuildFirewall(rules, rules), "Firewall");
}

TEST(ShardedEquivalenceTest, Proxy) {
  CheckShardedEquivalence(mbox::BuildProxy(), "Proxy");
}

TEST(ShardedEquivalenceTest, TrojanDetector) {
  CheckShardedEquivalence(mbox::BuildTrojanDetector(), "TrojanDetector");
}

// Same property, but hammering the flat flow tables: a churn-heavy trace
// (most packets open fresh flows) against a flow_capacity of 2, so every
// shard's tables grow through repeated incremental resizes mid-run. The
// 4-worker output must still be bit-identical to 1-worker — resize
// migrations, kick chains, and stash traffic are invisible to the packets.
TEST(ShardedEquivalenceTest, LoadBalancerUnderChurnWithTinyTables) {
  auto spec_or = mbox::BuildLoadBalancer();
  ASSERT_TRUE(spec_or.ok()) << spec_or.status().ToString();
  mbox::MiddleboxSpec spec = std::move(*spec_or);

  Rng rng(20260808);
  workload::ChurnOptions churn;
  churn.num_packets = 4000;
  churn.new_flow_fraction = 0.8;
  churn.established_flows = 24;
  churn.burst_period = 500;
  churn.burst_len = 64;
  churn.ingress_port = mbox::kPortInternal;
  const workload::Trace trace = workload::MakeChurnTrace(rng, churn);
  ASSERT_FALSE(trace.packets.empty());

  RunReport reports[2];
  std::vector<net::Packet> sinks[2];
  const int worker_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    EngineOptions options;
    options.workers = worker_counts[i];
    options.burst = 32;
    options.runtime.flow_capacity = 2;  // force mid-run table growth
    auto eng = Engine::Create(spec, options);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    reports[i] = (*eng)->Run(trace.packets, /*start_now_ms=*/1, &sinks[i]);
    (*eng)->Quiesce();
    EXPECT_EQ(reports[i].packets, trace.packets.size());
    EXPECT_EQ(reports[i].errors, 0u);
  }

  EXPECT_EQ(reports[0].sends, reports[1].sends);
  EXPECT_EQ(reports[0].drops, reports[1].drops);
  ASSERT_EQ(sinks[0].size(), sinks[1].size());
  for (size_t i = 0; i < sinks[0].size(); ++i) {
    ASSERT_EQ(sinks[0][i].Serialize(), sinks[1][i].Serialize())
        << "emitted packet " << i << " diverged between 1w and 4w";
  }
}

// ---------------------------------------------------------------------------
// Flow director under rewriting (NAT): return traffic for a translated
// tuple must land on the shard that owns the forward flow.

TEST(EngineTest, NatReturnTrafficFollowsDirectorPin) {
  auto spec = mbox::BuildMazuNat();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EngineOptions options;
  options.workers = 4;
  auto eng_or = Engine::Create(*spec, options);
  ASSERT_TRUE(eng_or.ok()) << eng_or.status().ToString();
  Engine& eng = **eng_or;

  Rng rng(77);
  uint64_t now_ms = 1;
  int pinned_seen = 0;
  for (int i = 0; i < 32; ++i) {
    const net::FiveTuple flow = workload::RandomFlow(rng);
    net::Packet out = net::MakeTcpPacket(flow, net::kTcpSyn, 0);
    out.set_ingress_port(mbox::kPortInternal);
    const int fwd_owner = eng.steering().OwnerOf(flow);
    auto outcome = eng.Process(std::move(out), now_ms++);
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    ASSERT_EQ(outcome.verdict.kind, Verdict::Kind::kSend);
    const net::FiveTuple xlated = outcome.out_packet.five_tuple();
    ASSERT_EQ(xlated.saddr, mbox::kNatExternalIp);

    // The translated tuple generally hashes elsewhere; the director must
    // have pinned it back to the forward flow's owner on emission.
    EXPECT_EQ(eng.steering().OwnerOf(xlated), fwd_owner);
    EXPECT_EQ(eng.steering().OwnerOf(xlated.Reversed()), fwd_owner);
    if (SymmetricFlowHash(xlated) % 4 != static_cast<uint64_t>(fwd_owner)) {
      ++pinned_seen;
    }

    // And the reverse packet must actually translate back: only the owning
    // shard's map has the (external port -> internal host) entry.
    net::Packet back =
        net::MakeTcpPacket(xlated.Reversed(), net::kTcpAck, 64);
    back.set_ingress_port(mbox::kPortExternal);
    auto rev = eng.Process(std::move(back), now_ms++);
    ASSERT_TRUE(rev.status.ok()) << rev.status.ToString();
    ASSERT_EQ(rev.verdict.kind, Verdict::Kind::kSend);
    EXPECT_EQ(rev.out_packet.five_tuple().daddr, flow.saddr);
    EXPECT_EQ(rev.out_packet.five_tuple().dport, flow.sport);
  }
  // The test is vacuous if every translated tuple happened to hash home.
  EXPECT_GT(pinned_seen, 0);
  EXPECT_GT(eng.steering().pinned_flows(), 0u);
}

// ---------------------------------------------------------------------------
// Engine plumbing

TEST(EngineTest, SingleWorkerMatchesBareMiddlebox) {
  auto spec_a = mbox::BuildProxy();
  auto spec_b = mbox::BuildProxy();
  ASSERT_TRUE(spec_a.ok() && spec_b.ok());
  auto bare = OffloadedMiddlebox::Create(*spec_a);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  auto eng = Engine::Create(*spec_b);
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();

  const workload::Trace trace = EquivalenceTrace("Proxy");
  uint64_t now_ms = 1;
  for (const net::Packet& pkt : trace.packets) {
    auto a = (*bare)->Process(pkt, now_ms);
    auto b = (*eng)->Process(pkt, now_ms);
    ++now_ms;
    ASSERT_TRUE(a.status.ok() && b.status.ok());
    ASSERT_EQ(a.verdict.kind, b.verdict.kind);
    if (a.verdict.kind == Verdict::Kind::kSend) {
      ASSERT_EQ(a.out_packet.Serialize(), b.out_packet.Serialize());
    }
  }
}

TEST(EngineTest, PublishesPerWorkerTelemetry) {
  auto spec = mbox::BuildLoadBalancer();
  ASSERT_TRUE(spec.ok());
  EngineOptions options;
  options.workers = 2;
  options.burst = 8;
  auto eng_or = Engine::Create(*spec, options);
  ASSERT_TRUE(eng_or.ok());
  Engine& eng = **eng_or;

  const workload::Trace trace = EquivalenceTrace("LoadBalancer");
  const RunReport report = eng.Run(trace.packets, 1);
  eng.Quiesce();

  EXPECT_EQ(report.worker_packets.size(), 2u);
  EXPECT_EQ(report.worker_packets[0] + report.worker_packets[1],
            report.packets);
  EXPECT_GT(report.worker_packets[0], 0u);
  EXPECT_GT(report.worker_packets[1], 0u);
  EXPECT_GT(report.MaxWorkerBusyUs(), 0.0);
  EXPECT_GT(report.AggregateMpps(), 0.0);

  auto* hist = eng.metrics().GetHistogram(
      "gallium_engine_burst_occupancy", {{"mbox", spec->name}},
      {1, 2, 4, 8, 16, 24, 32, 64}, "");
  EXPECT_EQ(hist->Count(), (trace.packets.size() + 7) / 8);  // bursts of 8
  // Worker gauges carry the unified {mbox, worker} label convention so
  // per-worker series from every subsystem join on the same scope.
  const double per_worker_packets =
      eng.metrics()
          .GetGauge("gallium_engine_worker_packets",
                    {{"mbox", spec->name}, {"worker", "0"}}, "")
          ->Value() +
      eng.metrics()
          .GetGauge("gallium_engine_worker_packets",
                    {{"mbox", spec->name}, {"worker", "1"}}, "")
          ->Value();
  EXPECT_EQ(per_worker_packets, static_cast<double>(report.packets));
}

// Hop tracing through the engine: every packet's hops sit on its owning
// worker's lane (w + 1), and each lane's packet.begin count is exactly the
// packets the report says that worker ran.
TEST(EngineTest, TracedHopsSitOnTheOwningWorkersLane) {
  auto spec = mbox::BuildMazuNat();
  ASSERT_TRUE(spec.ok());
  telemetry::FlightRecorder recorder(/*lanes=*/3, /*capacity_per_lane=*/8192);
  EngineOptions options;
  options.workers = 2;
  options.burst = 8;
  options.runtime.trace_hops = true;
  options.runtime.flight = &recorder;
  auto eng_or = Engine::Create(*spec, options);
  ASSERT_TRUE(eng_or.ok());
  Engine& eng = **eng_or;

  Rng rng(31);
  workload::TraceOptions trace_options;
  trace_options.num_flows = 24;
  trace_options.ingress_port = mbox::kPortInternal;
  const workload::Trace trace = workload::MakeTrace(rng, trace_options);
  ASSERT_GT(trace.packets.size(), 40u);
  const size_t half = trace.packets.size() / 2;

  // Packet at a time: each packet's events land on lane owner + 1 only.
  uint64_t slow_path = 0;
  for (size_t i = 0; i < half; ++i) {
    const net::Packet& pkt = trace.packets[i];
    const int owner = eng.steering().OwnerOf(pkt.five_tuple());
    const auto before = testing::HopPackets(recorder).size();
    const uint32_t other_before = recorder.LaneOccupancy(2 - owner);
    auto out = eng.Process(pkt, 1 + i);
    ASSERT_TRUE(out.status.ok());
    if (!out.fast_path) ++slow_path;
    const auto packets = testing::HopPackets(recorder);
    ASSERT_EQ(packets.size(), before + 1);
    EXPECT_EQ(packets.back().lane, owner + 1);
    EXPECT_FALSE(packets.back().hops.empty());
    EXPECT_EQ(recorder.LaneOccupancy(2 - owner), other_before);
  }
  EXPECT_GT(slow_path, 0u);

  // Burst loop: per lane, packet.begin events == RunReport::worker_packets.
  recorder.Clear();
  const std::vector<net::Packet> rest(trace.packets.begin() + half,
                                      trace.packets.end());
  const RunReport report = eng.Run(rest, 1 + half);
  ASSERT_EQ(report.errors, 0u);
  ASSERT_EQ(recorder.events_dropped(), 0u);
  uint64_t begins[3] = {0, 0, 0};
  for (const auto& e : recorder.Snapshot()) {
    if (e.id == static_cast<uint16_t>(telemetry::EventId::kPacketBegin)) {
      ++begins[e.lane];
    }
  }
  EXPECT_EQ(begins[0], 0u);
  EXPECT_EQ(begins[1], report.worker_packets[0]);
  EXPECT_EQ(begins[2], report.worker_packets[1]);
  EXPECT_GT(begins[1], 0u);
  EXPECT_GT(begins[2], 0u);
}

// ---------------------------------------------------------------------------
// Threaded mode: real worker threads over SPSC ingress rings. The firewall
// holds only flow-keyed whitelist maps (no globals), so shards are fully
// independent and the parallel run must conserve every packet.

TEST(EngineThreadedTest, FirewallConservesAllPackets) {
  std::vector<mbox::MapInitEntry> rules;
  for (uint32_t i = 0; i < 64; ++i) {
    rules.push_back(mbox::MapInitEntry{
        {0xc0a80000u + i, 0xac100000u + i, static_cast<uint64_t>(1024 + i),
         80ull, 6ull},
        {1}});
  }
  auto spec = mbox::BuildFirewall(rules, rules);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  EngineOptions options;
  options.workers = 4;
  options.threaded = true;
  options.ring_capacity = 64;  // small ring: exercise the full-ring backoff
  auto eng_or = Engine::Create(*spec, options);
  ASSERT_TRUE(eng_or.ok()) << eng_or.status().ToString();
  Engine& eng = **eng_or;

  Rng rng(21);
  workload::TraceOptions trace_options;
  trace_options.num_flows = 64;
  trace_options.max_flow_bytes = 30000;
  trace_options.ingress_port = mbox::kPortInternal;
  const workload::Trace trace = workload::MakeTrace(rng, trace_options);

  const RunReport report = eng.Run(trace.packets, 1);
  eng.Quiesce();

  EXPECT_EQ(report.packets, trace.packets.size());
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.sends + report.drops + report.shed, report.packets);
  uint64_t via_workers = 0;
  for (uint64_t wp : report.worker_packets) via_workers += wp;
  EXPECT_EQ(via_workers, report.packets);
}

}  // namespace
}  // namespace gallium::engine
