// Tests for the §7 table-cache extension: the switch holds only a fraction
// of each replicated map; misses are non-authoritative and fall back to the
// server, which reprocesses the packet and refreshes the cache.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <vector>

#include "frontend/middlebox_builder.h"
#include "hop_trace.h"
#include "mbox/middleboxes.h"
#include "runtime/offloaded_middlebox.h"
#include "runtime/software_middlebox.h"
#include "workload/packet_gen.h"

namespace gallium::runtime {
namespace {

OffloadedOptions CacheOptions(uint64_t entries) {
  OffloadedOptions options;
  options.cache_entries_per_table = entries;
  return options;
}

TEST(TableCache, EquivalentToBaselineUnderHeavyEviction) {
  // A cache of 8 entries with 64 concurrent flows: constant eviction, every
  // re-touched evicted flow takes the miss path — behavior must still match
  // the software baseline exactly.
  auto spec_sw = mbox::BuildMiniLb();
  auto spec_off = mbox::BuildMiniLb();
  ASSERT_TRUE(spec_sw.ok() && spec_off.ok());
  SoftwareMiddlebox software(*spec_sw);
  auto offloaded = OffloadedMiddlebox::Create(*spec_off, CacheOptions(8));
  ASSERT_TRUE(offloaded.ok()) << offloaded.status().ToString();

  Rng rng(71);
  std::vector<net::FiveTuple> flows;
  for (int i = 0; i < 64; ++i) flows.push_back(workload::RandomFlow(rng));

  for (int round = 0; round < 5; ++round) {
    for (const net::FiveTuple& flow : flows) {
      net::Packet pkt = net::MakeTcpPacket(
          flow, round == 0 ? net::kTcpSyn : net::kTcpAck, 64);
      pkt.set_ingress_port(mbox::kPortInternal);
      net::Packet sw_pkt = pkt;
      auto sw_out = software.Process(sw_pkt);
      auto off_out = (*offloaded)->Process(pkt);
      ASSERT_TRUE(sw_out.status.ok());
      ASSERT_TRUE(off_out.status.ok()) << off_out.status.ToString();
      ASSERT_EQ(sw_out.verdict.kind, off_out.verdict.kind);
      ASSERT_EQ(sw_pkt.ip().daddr, off_out.out_packet.ip().daddr)
          << "round " << round << " flow " << flow.ToString();
    }
  }
  // With 64 flows and 8 slots there must have been cache-miss recoveries.
  EXPECT_GT((*offloaded)->counters().cache_misses->Value(), 0u);
  // The cache never exceeds its capacity.
  auto* table = (*offloaded)->device().table(0);
  ASSERT_NE(table, nullptr);
  EXPECT_LE(table->size(), 8u);
  EXPECT_GT(table->evictions(), 0u);
}

TEST(TableCache, HotFlowStaysOnFastPathAfterRefill) {
  auto spec = mbox::BuildMiniLb();
  ASSERT_TRUE(spec.ok());
  auto mbx = OffloadedMiddlebox::Create(*spec, CacheOptions(4));
  ASSERT_TRUE(mbx.ok());

  Rng rng(72);
  const net::FiveTuple hot = workload::RandomFlow(rng);

  auto send_hot = [&] {
    net::Packet pkt = net::MakeTcpPacket(hot, net::kTcpAck, 64);
    pkt.set_ingress_port(mbox::kPortInternal);
    return (*mbx)->Process(pkt);
  };

  // First packet: miss (new flow), server assigns the backend and installs
  // the entry in the cache.
  auto first = send_hot();
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.fast_path);

  // Second packet: cache hit, pure switch processing.
  auto second = send_hot();
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.fast_path);
  EXPECT_EQ(first.out_packet.ip().daddr, second.out_packet.ip().daddr);

  // Blow the 4-entry cache with other flows, evicting the hot entry.
  for (int i = 0; i < 8; ++i) {
    net::Packet pkt = net::MakeTcpPacket(workload::RandomFlow(rng),
                                         net::kTcpSyn, 0);
    pkt.set_ingress_port(mbox::kPortInternal);
    ASSERT_TRUE((*mbx)->Process(pkt).status.ok());
  }

  // The hot flow now misses — but keeps its backend (server is
  // authoritative) and the cache refreshes so the next packet hits again.
  const uint64_t misses_before = (*mbx)->counters().cache_misses->Value();
  auto third = send_hot();
  ASSERT_TRUE(third.status.ok());
  EXPECT_FALSE(third.fast_path);
  EXPECT_GT((*mbx)->counters().cache_misses->Value(), misses_before);
  EXPECT_EQ(third.out_packet.ip().daddr, first.out_packet.ip().daddr)
      << "affinity must survive eviction";

  auto fourth = send_hot();
  ASSERT_TRUE(fourth.status.ok());
  EXPECT_TRUE(fourth.fast_path) << "cache refilled after the miss";
}

TEST(TableCache, ReducesSwitchMemoryFootprint) {
  auto spec_full = mbox::BuildLoadBalancer();
  auto spec_cached = mbox::BuildLoadBalancer();
  ASSERT_TRUE(spec_full.ok() && spec_cached.ok());
  auto full = OffloadedMiddlebox::Create(*spec_full);
  auto cached = OffloadedMiddlebox::Create(*spec_cached, CacheOptions(1024));
  ASSERT_TRUE(full.ok() && cached.ok());
  const auto full_mem = (*full)->device().Resources().memory_bytes_used;
  const auto cached_mem = (*cached)->device().Resources().memory_bytes_used;
  EXPECT_LT(cached_mem, full_mem / 16)
      << "a 1K cache of a 128K-entry table must shrink memory dramatically";
}

TEST(TableCache, NatWorksWithCachedTranslationTables) {
  auto spec_sw = mbox::BuildMazuNat();
  auto spec_off = mbox::BuildMazuNat();
  ASSERT_TRUE(spec_sw.ok() && spec_off.ok());
  SoftwareMiddlebox software(*spec_sw);
  auto mbx = OffloadedMiddlebox::Create(*spec_off, CacheOptions(16));
  ASSERT_TRUE(mbx.ok()) << mbx.status().ToString();

  Rng rng(73);
  for (int i = 0; i < 40; ++i) {
    const net::FiveTuple flow = workload::RandomFlow(rng);
    net::Packet pkt = net::MakeTcpPacket(flow, net::kTcpSyn, 0);
    pkt.set_ingress_port(mbox::kPortInternal);
    net::Packet sw_pkt = pkt;
    auto sw_out = software.Process(sw_pkt);
    auto off_out = (*mbx)->Process(pkt);
    ASSERT_TRUE(sw_out.status.ok() && off_out.status.ok())
        << off_out.status.ToString();
    ASSERT_EQ(sw_pkt.sport(), off_out.out_packet.sport())
        << "port allocation must match under caching";
  }
}

TEST(TableCache, RejectsSwitchOnlyGlobalWrites) {
  // A program whose only access to a global is a switch-side write cannot
  // run in cache mode: the server could not replay the pre partition.
  frontend::MiddleboxBuilder mb("switch_only_global");
  auto g = mb.DeclareGlobal("marker", ir::Width::kU32, 0);
  auto& b = mb.b();
  const ir::Reg ttl = b.HeaderRead(ir::HeaderField::kIpTtl);
  g.Write(ir::R(ttl));
  b.Send(ir::Imm(1));
  auto fn = std::move(mb).Finish();
  ASSERT_TRUE(fn.ok());

  mbox::MiddleboxSpec spec;
  spec.name = "switch_only_global";
  spec.fn = std::move(*fn);
  auto mbx = OffloadedMiddlebox::Create(spec, CacheOptions(16));
  EXPECT_FALSE(mbx.ok());
  EXPECT_EQ(mbx.status().code(), ErrorCode::kUnsupported);
}

// Sends `rounds` passes over `num_flows` flows (SYN first, then ACKs) from
// the internal port: with a cache much smaller than the flow set, every
// round re-touches evicted entries and takes the cache-miss path.
std::vector<net::Packet> EvictingTraffic(uint64_t seed, int num_flows,
                                         int rounds) {
  Rng rng(seed);
  std::vector<net::FiveTuple> flows;
  for (int i = 0; i < num_flows; ++i) {
    flows.push_back(workload::RandomFlow(rng));
  }
  std::vector<net::Packet> packets;
  for (int round = 0; round < rounds; ++round) {
    for (const net::FiveTuple& flow : flows) {
      net::Packet pkt = net::MakeTcpPacket(
          flow, round == 0 ? net::kTcpSyn : net::kTcpAck, 64);
      pkt.set_ingress_port(mbox::kPortInternal);
      packets.push_back(std::move(pkt));
    }
  }
  return packets;
}

TEST(TableCache, LossyDataLinksStayEquivalentAndExactlyOnce) {
  // Cache-miss recoveries return to the switch over the same framed data
  // link as every other slow-path packet, so data-link loss, duplication,
  // reordering and corruption must leave outputs and the host store
  // identical to the software baseline.
  FaultPlan plan;
  plan.seed = 17;
  plan.to_server.drop = 0.2;
  plan.to_server.duplicate = 0.1;
  plan.to_server.reorder = 0.1;
  plan.to_server.corrupt = 0.05;
  plan.to_switch = plan.to_server;

  const std::vector<std::function<Result<mbox::MiddleboxSpec>()>> builds = {
      [] { return mbox::BuildMiniLb(); },
      [] { return mbox::BuildMazuNat(); },
  };
  for (const auto& build : builds) {
    auto spec_sw = build();
    auto spec_off = build();
    ASSERT_TRUE(spec_sw.ok() && spec_off.ok());
    SCOPED_TRACE(spec_sw->name);
    SoftwareMiddlebox software(*spec_sw);
    OffloadedOptions options = CacheOptions(8);
    options.fault_plan = &plan;
    auto mbx = OffloadedMiddlebox::Create(*spec_off, options);
    ASSERT_TRUE(mbx.ok()) << mbx.status().ToString();

    const std::vector<net::Packet> packets = EvictingTraffic(75, 48, 4);
    uint64_t crossings = 0;
    for (const net::Packet& pkt : packets) {
      net::Packet sw_pkt = pkt;
      auto sw_out = software.Process(sw_pkt);
      const uint64_t misses_before = (*mbx)->counters().cache_misses->Value();
      auto off_out = (*mbx)->Process(pkt);
      // A cache-miss packet reaches the server pristine and crosses only
      // the return link; every other slow-path packet crosses both.
      if (!off_out.fast_path) {
        crossings +=
            (*mbx)->counters().cache_misses->Value() > misses_before ? 1 : 2;
      }
      ASSERT_TRUE(sw_out.status.ok());
      ASSERT_TRUE(off_out.status.ok()) << off_out.status.ToString();
      ASSERT_EQ(sw_out.verdict, off_out.verdict) << pkt.ToString();
      if (sw_out.verdict.kind == Verdict::Kind::kSend) {
        EXPECT_EQ(sw_pkt.Serialize(), off_out.out_packet.Serialize())
            << pkt.ToString();
      }
    }
    EXPECT_EQ((*mbx)->packets_total(), packets.size());
    EXPECT_GT((*mbx)->counters().cache_misses->Value(), 0u);
    EXPECT_GT((*mbx)->counters().data_retries->Value(), 0u)
        << "the links never lost a frame";
    // Every crossing succeeded exactly once: the frames sent are one per
    // crossing plus one per retransmit.
    FaultInjector* injector = (*mbx)->injector();
    EXPECT_EQ(injector->to_server().frames_sent() +
                  injector->to_switch().frames_sent(),
              crossings + (*mbx)->counters().data_retries->Value());

    // Exactly-once: no sync batch was applied twice.
    std::set<uint64_t> applied;
    for (const auto& [epoch, seq] : (*mbx)->device().applied_log()) {
      EXPECT_TRUE(applied.insert(seq).second) << "seq " << seq << " twice";
    }
    // The host store ends where the baseline's state does.
    const ir::Function& fn = (*mbx)->fn();
    for (ir::StateIndex m = 0; m < fn.maps().size(); ++m) {
      EXPECT_EQ((*mbx)->server_state().map_contents(m),
                software.state().map_contents(m))
          << fn.maps()[m].name;
    }
    for (ir::StateIndex g = 0; g < fn.globals().size(); ++g) {
      EXPECT_EQ((*mbx)->server_state().GlobalRead(g),
                software.state().GlobalRead(g))
          << fn.global(g).name;
    }
  }
}

TEST(TableCache, TraceAndOutcomeOpsReaggregateToRegistryTotals) {
  // In cache mode a missed packet runs an aborted pre pass, the server-full
  // pass and the post pass. Every one of them is counted once: in the
  // Outcome, in the registry totals, and as a hop event.
  auto spec = mbox::BuildMiniLb();
  ASSERT_TRUE(spec.ok());
  telemetry::FlightRecorder recorder(/*lanes=*/2, /*capacity_per_lane=*/4096);
  OffloadedOptions options = CacheOptions(4);
  options.trace_hops = true;
  options.flight = &recorder;
  options.flight_lane = 1;
  auto mbx = OffloadedMiddlebox::Create(*spec, options);
  ASSERT_TRUE(mbx.ok()) << mbx.status().ToString();

  telemetry::OpCounts switch_total, server_total;
  std::vector<bool> synced;
  for (const net::Packet& pkt : EvictingTraffic(76, 16, 3)) {
    auto out = (*mbx)->Process(pkt);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    switch_total += out.switch_stats;
    server_total += out.server_stats;
    synced.push_back(out.state_synced);
  }
  EXPECT_EQ((*mbx)->switch_op_totals(), switch_total);
  EXPECT_EQ((*mbx)->server_op_totals(), server_total);
  ASSERT_EQ(recorder.events_dropped(), 0u);

  const auto packets = testing::HopPackets(recorder);
  ASSERT_EQ(packets.size(), synced.size());
  int64_t hop_switch = 0, hop_server = 0;
  int committed_misses = 0, refresh_only_misses = 0;
  for (const testing::HopPacket& pkt : packets) {
    for (const auto& hop : pkt.hops) {
      if (testing::IsSwitchHop(hop)) hop_switch += hop.args[1];
      if (testing::IsServerHop(hop)) hop_server += hop.args[1];
    }
    const std::string path = pkt.Path();
    if (path.find("server.cache_recovery") == std::string::npos) continue;
    // The aborted pre attempt is a hop of its own, with its op counts. A new
    // flow's insert holds the packet for the sync commit; a pure cache
    // refresh is synced too, but without holding the packet or a hop.
    EXPECT_GT(pkt.hops.front().args[1], 0u);
    if (synced[pkt.id]) {
      ++committed_misses;
      EXPECT_EQ(path,
                "switch.pre -> server.cache_recovery -> sync.commit -> "
                "wire.to_switch -> switch.post");
    } else {
      ++refresh_only_misses;
      EXPECT_EQ(path,
                "switch.pre -> server.cache_recovery -> wire.to_switch -> "
                "switch.post");
    }
  }
  EXPECT_GT(committed_misses, 0);
  EXPECT_GT(refresh_only_misses, 0);
  EXPECT_EQ(static_cast<uint64_t>(committed_misses + refresh_only_misses),
            (*mbx)->counters().cache_misses->Value());
  EXPECT_EQ(hop_switch, switch_total.Total());
  EXPECT_EQ(hop_server, server_total.Total());
}

TEST(TableCache, DisabledModeUnaffected) {
  // cache_entries_per_table = 0 must behave exactly as before.
  auto spec = mbox::BuildMiniLb();
  ASSERT_TRUE(spec.ok());
  auto mbx = OffloadedMiddlebox::Create(*spec, CacheOptions(0));
  ASSERT_TRUE(mbx.ok());
  EXPECT_FALSE((*mbx)->device().IsCachedMap(0));
  Rng rng(74);
  net::Packet pkt = net::MakeTcpPacket(workload::RandomFlow(rng),
                                       net::kTcpSyn, 0);
  pkt.set_ingress_port(mbox::kPortInternal);
  auto out = (*mbx)->Process(pkt);
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ((*mbx)->counters().cache_misses->Value(), 0u);
}

}  // namespace
}  // namespace gallium::runtime
