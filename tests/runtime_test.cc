// Offloaded-runtime tests: the run-to-completion concurrency goals of §3.1
// and §4.3.3 (causally dependent packets observe all prior state updates;
// atomicity; output commit), wire-format crossing, state recording, and the
// load balancer's maintenance path.
#include <gtest/gtest.h>

#include "frontend/middlebox_builder.h"
#include "mbox/middleboxes.h"
#include "runtime/offloaded_middlebox.h"
#include "runtime/software_middlebox.h"
#include "workload/churn.h"
#include "workload/packet_gen.h"

namespace gallium::runtime {
namespace {

TEST(RecordingBackend, RecordsOnlyWatchedMutations) {
  auto spec = mbox::BuildMiniLb();
  ASSERT_TRUE(spec.ok());
  HostStateStore store(*spec->fn);
  RecordingStateBackend recording(&store, {true}, {});

  recording.MapInsert(0, {1}, {2});
  recording.MapErase(0, {1});
  ASSERT_EQ(recording.map_mutations().size(), 2u);
  EXPECT_FALSE(recording.map_mutations()[0].is_erase);
  EXPECT_TRUE(recording.map_mutations()[1].is_erase);
  EXPECT_TRUE(recording.HasMutations());
  recording.Clear();
  EXPECT_FALSE(recording.HasMutations());

  // Lookups are never recorded.
  StateValue value;
  recording.MapLookup(0, {1}, &value);
  EXPECT_FALSE(recording.HasMutations());
}

TEST(RecordingBackend, PassesThroughToInner) {
  auto spec = mbox::BuildMiniLb();
  ASSERT_TRUE(spec.ok());
  HostStateStore store(*spec->fn);
  RecordingStateBackend recording(&store, {true}, {});
  recording.MapInsert(0, {5}, {6});
  StateValue value;
  EXPECT_TRUE(store.MapLookup(0, {5}, &value));
  EXPECT_EQ(value[0], 6u);
}

// --- Run-to-completion semantics --------------------------------------------------

// Causal dependency: a SYN creates NAT state; the "reply" (which an endhost
// could only send after receiving the translated SYN) must observe the
// mapping — on the switch fast path, i.e. the update must already have been
// synchronized when the SYN was released (output commit).
TEST(RunToCompletion, CausallyDependentPacketSeesStateUpdates) {
  auto spec = mbox::BuildMazuNat();
  ASSERT_TRUE(spec.ok());
  auto mbx = OffloadedMiddlebox::Create(*spec);
  ASSERT_TRUE(mbx.ok()) << mbx.status().ToString();

  Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    const net::FiveTuple flow = workload::RandomFlow(rng);
    net::Packet syn = net::MakeTcpPacket(flow, net::kTcpSyn, 0);
    syn.set_ingress_port(mbox::kPortInternal);
    auto out1 = (*mbx)->Process(syn);
    ASSERT_TRUE(out1.status.ok());
    ASSERT_EQ(out1.verdict.kind, Verdict::Kind::kSend);
    // Output commit: the packet that updated replicated state must have
    // been held for the synchronization.
    EXPECT_TRUE(out1.state_synced);
    EXPECT_GT(out1.sync_latency_us, 0.0);

    // The causally-dependent reply must hit switch state (fast path).
    net::FiveTuple reply{flow.daddr, mbox::kNatExternalIp, flow.dport,
                         out1.out_packet.sport(), net::kIpProtoTcp};
    net::Packet synack = net::MakeTcpPacket(reply, net::kTcpSyn | net::kTcpAck, 0);
    synack.set_ingress_port(mbox::kPortExternal);
    auto out2 = (*mbx)->Process(synack);
    ASSERT_TRUE(out2.status.ok());
    EXPECT_TRUE(out2.fast_path)
        << "reply must observe the mapping on the switch";
    EXPECT_EQ(out2.out_packet.ip().daddr, flow.saddr);
  }
}

// Atomicity: MazuNAT's slow path updates BOTH translation tables (plus the
// port counter). After the packet is released, the switch must expose all
// of them — never a partial update.
TEST(RunToCompletion, MultiTableUpdatesAreAtomic) {
  auto spec = mbox::BuildMazuNat();
  ASSERT_TRUE(spec.ok());
  const ir::StateIndex nat_out = spec->MapIndex("nat_out");
  const ir::StateIndex nat_in = spec->MapIndex("nat_in");
  auto mbx = OffloadedMiddlebox::Create(*spec);
  ASSERT_TRUE(mbx.ok());

  Rng rng(32);
  for (int i = 0; i < 30; ++i) {
    const net::FiveTuple flow = workload::RandomFlow(rng);
    net::Packet syn = net::MakeTcpPacket(flow, net::kTcpSyn, 0);
    syn.set_ingress_port(mbox::kPortInternal);
    auto out = (*mbx)->Process(syn);
    ASSERT_TRUE(out.status.ok());
    const uint16_t ext_port = out.out_packet.sport();

    StateValue v_out, v_in;
    EXPECT_TRUE((*mbx)->device().data_plane().MapLookup(
        nat_out, {flow.saddr, flow.sport}, &v_out))
        << "outbound mapping missing on switch";
    EXPECT_TRUE(
        (*mbx)->device().data_plane().MapLookup(nat_in, {ext_port}, &v_in))
        << "inbound mapping missing on switch (partial update!)";
    EXPECT_EQ(v_out[0], ext_port);
    EXPECT_EQ(v_in[0], flow.saddr);
    EXPECT_EQ(v_in[1], flow.sport);
  }
}

// "All or none": packets of unrelated flows processed between a SYN and its
// reply observe either the whole mapping or none of it — probing the switch
// tables for a key never yields a half-written value.
TEST(RunToCompletion, InterleavedFlowsObserveConsistentState) {
  auto spec_sw = mbox::BuildMazuNat();
  auto spec_off = mbox::BuildMazuNat();
  ASSERT_TRUE(spec_sw.ok() && spec_off.ok());
  SoftwareMiddlebox software(*spec_sw);
  auto mbx = OffloadedMiddlebox::Create(*spec_off);
  ASSERT_TRUE(mbx.ok());

  Rng rng(33);
  std::vector<net::FiveTuple> flows;
  for (int i = 0; i < 20; ++i) flows.push_back(workload::RandomFlow(rng));

  // Interleave SYNs and data packets of all flows.
  for (int round = 0; round < 4; ++round) {
    for (const net::FiveTuple& flow : flows) {
      net::Packet pkt = net::MakeTcpPacket(
          flow, round == 0 ? net::kTcpSyn : net::kTcpAck, 100);
      pkt.set_ingress_port(mbox::kPortInternal);
      net::Packet sw_pkt = pkt;
      auto sw_out = software.Process(sw_pkt);
      auto off_out = (*mbx)->Process(pkt);
      ASSERT_TRUE(sw_out.status.ok() && off_out.status.ok());
      ASSERT_EQ(sw_out.verdict.kind, off_out.verdict.kind);
      EXPECT_EQ(sw_pkt.sport(), off_out.out_packet.sport())
          << "same port allocation order under interleaving";
      if (round > 0) {
        EXPECT_TRUE(off_out.fast_path);
        EXPECT_FALSE(off_out.state_synced);
      }
    }
  }
}

TEST(Offloaded, WireFormatCrossingPreservesBehavior) {
  // serialize_wire=true (default) round-trips switch<->server packets
  // through real bytes; results must match the no-serialization mode.
  auto spec_a = mbox::BuildMiniLb();
  auto spec_b = mbox::BuildMiniLb();
  ASSERT_TRUE(spec_a.ok() && spec_b.ok());

  OffloadedOptions wire_opts;
  wire_opts.serialize_wire = true;
  auto with_wire = OffloadedMiddlebox::Create(*spec_a, wire_opts);
  OffloadedOptions fast_opts;
  fast_opts.serialize_wire = false;
  auto without_wire = OffloadedMiddlebox::Create(*spec_b, fast_opts);
  ASSERT_TRUE(with_wire.ok() && without_wire.ok());

  Rng rng(34);
  for (int i = 0; i < 100; ++i) {
    net::Packet pkt = net::MakeTcpPacket(workload::RandomFlow(rng),
                                         net::kTcpAck, 200);
    pkt.set_ingress_port(mbox::kPortInternal);
    auto out1 = (*with_wire)->Process(pkt);
    auto out2 = (*without_wire)->Process(pkt);
    ASSERT_TRUE(out1.status.ok()) << out1.status.ToString();
    ASSERT_TRUE(out2.status.ok());
    EXPECT_EQ(out1.verdict.kind, out2.verdict.kind);
    EXPECT_EQ(out1.out_packet.ip().daddr, out2.out_packet.ip().daddr);
    EXPECT_EQ(out1.fast_path, out2.fast_path);
  }
}

TEST(Offloaded, OutputPacketHasNoGalliumHeader) {
  auto spec = mbox::BuildMiniLb();
  ASSERT_TRUE(spec.ok());
  auto mbx = OffloadedMiddlebox::Create(*spec);
  ASSERT_TRUE(mbx.ok());
  Rng rng(35);
  net::Packet pkt = net::MakeTcpPacket(workload::RandomFlow(rng),
                                       net::kTcpSyn, 0);
  pkt.set_ingress_port(mbox::kPortInternal);
  auto out = (*mbx)->Process(pkt);  // slow path crosses the wire twice
  ASSERT_TRUE(out.status.ok());
  EXPECT_FALSE(out.fast_path);
  EXPECT_FALSE(out.out_packet.has_gallium())
      << "the transfer header is middlebox-internal";
  EXPECT_EQ(out.out_packet.eth().ether_type, net::kEtherTypeIpv4);
}

TEST(Offloaded, TransferBytesWithinConstraint) {
  for (auto& spec : mbox::BuildAllPaperMiddleboxes()) {
    auto mbx = OffloadedMiddlebox::Create(spec);
    ASSERT_TRUE(mbx.ok()) << spec.name;
    Rng rng(36);
    for (int i = 0; i < 50; ++i) {
      net::Packet pkt = net::MakeTcpPacket(workload::RandomFlow(rng),
                                           i % 2 ? net::kTcpAck : net::kTcpSyn,
                                           100);
      pkt.set_ingress_port(mbox::kPortInternal);
      auto out = (*mbx)->Process(pkt);
      ASSERT_TRUE(out.status.ok()) << spec.name;
      // Wire header size = layout size + 8 bytes of count/cond framing;
      // the paper's 20-byte budget covers the variable payload.
      EXPECT_LE(out.transfer_bytes_to_server, 20 + 8) << spec.name;
      EXPECT_LE(out.transfer_bytes_to_switch, 20 + 8) << spec.name;
    }
  }
}

TEST(Offloaded, FastPathCountersTrackOutcomes) {
  auto spec = mbox::BuildProxy();
  ASSERT_TRUE(spec.ok());
  auto mbx = OffloadedMiddlebox::Create(*spec);
  ASSERT_TRUE(mbx.ok());
  Rng rng(37);
  for (int i = 0; i < 64; ++i) {
    net::Packet pkt = net::MakeTcpPacket(workload::RandomFlow(rng),
                                         net::kTcpAck, 10);
    pkt.set_ingress_port(mbox::kPortInternal);
    ASSERT_TRUE((*mbx)->Process(pkt).status.ok());
  }
  EXPECT_EQ((*mbx)->packets_total(), 64u);
  EXPECT_EQ((*mbx)->packets_fast_path(), 64u);
  EXPECT_DOUBLE_EQ((*mbx)->FastPathFraction(), 1.0);
}

TEST(Offloaded, IdleFlowCollectionSyncsSwitch) {
  auto spec = mbox::BuildLoadBalancer();
  ASSERT_TRUE(spec.ok());
  const ir::StateIndex flows_map = spec->MapIndex("flows");
  const ir::StateIndex created_map = spec->MapIndex("flow_created");
  auto mbx = OffloadedMiddlebox::Create(*spec);
  ASSERT_TRUE(mbx.ok());

  Rng rng(38);
  uint64_t now_ms = 1000;
  // Create 8 flows at t=1000, 4 more at t=200000.
  for (int i = 0; i < 8; ++i) {
    net::Packet syn = net::MakeTcpPacket(workload::RandomFlow(rng),
                                         net::kTcpSyn, 0);
    syn.set_ingress_port(mbox::kPortInternal);
    ASSERT_TRUE((*mbx)->Process(syn, now_ms).status.ok());
  }
  now_ms = 200000;
  for (int i = 0; i < 4; ++i) {
    net::Packet syn = net::MakeTcpPacket(workload::RandomFlow(rng),
                                         net::kTcpSyn, 0);
    syn.set_ingress_port(mbox::kPortInternal);
    ASSERT_TRUE((*mbx)->Process(syn, now_ms).status.ok());
  }
  ASSERT_EQ((*mbx)->server_state().MapSize(flows_map), 12u);

  // Collect with a 5-minute timeout at t=310s: only the first batch expires.
  auto collected = (*mbx)->CollectIdleFlows(flows_map, created_map,
                                            /*now_ms=*/310000,
                                            /*timeout_ms=*/300000);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(*collected, 8);
  EXPECT_EQ((*mbx)->server_state().MapSize(flows_map), 4u);
  auto* table = (*mbx)->device().table(flows_map);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), 4u) << "switch table pruned in sync";
}

TEST(Offloaded, IdleFlowCollectionOnEmptyMapIsNoOp) {
  auto spec = mbox::BuildLoadBalancer();
  ASSERT_TRUE(spec.ok());
  auto mbx = OffloadedMiddlebox::Create(*spec);
  ASSERT_TRUE(mbx.ok());

  const uint64_t batches_before = (*mbx)->counters().sync_batches_sent->Value();
  auto collected = (*mbx)->CollectIdleFlows(spec->MapIndex("flows"),
                                            spec->MapIndex("flow_created"),
                                            /*now_ms=*/310000,
                                            /*timeout_ms=*/300000);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(*collected, 0);
  // Nothing expired => no sync batch crosses the control plane.
  EXPECT_EQ((*mbx)->counters().sync_batches_sent->Value(), batches_before);
}

TEST(Offloaded, IdleFlowCollectionExpiresEverything) {
  auto spec = mbox::BuildLoadBalancer();
  ASSERT_TRUE(spec.ok());
  const ir::StateIndex flows_map = spec->MapIndex("flows");
  const ir::StateIndex created_map = spec->MapIndex("flow_created");
  auto mbx = OffloadedMiddlebox::Create(*spec);
  ASSERT_TRUE(mbx.ok());

  Rng rng(39);
  for (int i = 0; i < 6; ++i) {
    net::Packet syn = net::MakeTcpPacket(workload::RandomFlow(rng),
                                         net::kTcpSyn, 0);
    syn.set_ingress_port(mbox::kPortInternal);
    ASSERT_TRUE((*mbx)->Process(syn, /*now_ms=*/1000).status.ok());
  }
  ASSERT_EQ((*mbx)->server_state().MapSize(flows_map), 6u);

  auto collected = (*mbx)->CollectIdleFlows(flows_map, created_map,
                                            /*now_ms=*/1000000,
                                            /*timeout_ms=*/300000);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(*collected, 6);
  EXPECT_EQ((*mbx)->server_state().MapSize(flows_map), 0u);
  EXPECT_EQ((*mbx)->server_state().MapSize(created_map), 0u);
  EXPECT_EQ((*mbx)->device().table(flows_map)->size(), 0u);
}

TEST(Offloaded, IdleFlowCollectionErasesSameKeysOnSwitchReplica) {
  auto spec = mbox::BuildLoadBalancer();
  ASSERT_TRUE(spec.ok());
  const ir::StateIndex flows_map = spec->MapIndex("flows");
  const ir::StateIndex created_map = spec->MapIndex("flow_created");
  auto mbx = OffloadedMiddlebox::Create(*spec);
  ASSERT_TRUE(mbx.ok());

  Rng rng(40);
  for (int i = 0; i < 5; ++i) {
    net::Packet syn = net::MakeTcpPacket(workload::RandomFlow(rng),
                                         net::kTcpSyn, 0);
    syn.set_ingress_port(mbox::kPortInternal);
    ASSERT_TRUE((*mbx)->Process(syn, /*now_ms=*/1000).status.ok());
  }
  for (int i = 0; i < 3; ++i) {
    net::Packet syn = net::MakeTcpPacket(workload::RandomFlow(rng),
                                         net::kTcpSyn, 0);
    syn.set_ingress_port(mbox::kPortInternal);
    ASSERT_TRUE((*mbx)->Process(syn, /*now_ms=*/400000).status.ok());
  }

  auto collected = (*mbx)->CollectIdleFlows(flows_map, created_map,
                                            /*now_ms=*/500000,
                                            /*timeout_ms=*/300000);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(*collected, 5);

  // The switch replica of every replicated map must hold exactly the
  // surviving host entries: same size and every surviving key present.
  for (ir::StateIndex map : {flows_map, created_map}) {
    auto* table = (*mbx)->device().table(map);
    if (table == nullptr) continue;  // not resident on the switch
    const auto& host = (*mbx)->server_state().map_contents(map);
    EXPECT_EQ(table->size(), host.size()) << "map " << map;
    for (const auto& [key, value] : host) {
      switchsim::TableValue replica;
      EXPECT_TRUE(table->Lookup(key, &replica)) << "map " << map;
    }
  }
}

// A map the switch reads and the server writes (so it is replicated), plus
// a replicated global on one branch. Packets from the internal port write
// the map only, which the sync queue may defer; packets from any other port
// also bump the global, which keeps the commit inline.
Result<mbox::MiddleboxSpec> BuildQueuedAndInlineWriter() {
  frontend::MiddleboxBuilder mb("queued_and_inline");
  auto ports = mb.DeclareMap("ports", {ir::Width::kU16}, {ir::Width::kU16},
                             /*max_entries=*/1024);
  auto counter = mb.DeclareGlobal("counter", ir::Width::kU16, /*init=*/0);
  auto& b = mb.b();
  const ir::Reg ingress = b.HeaderRead(ir::HeaderField::kIngressPort, "in");
  const ir::Reg sport = b.HeaderRead(ir::HeaderField::kSrcPort, "sport");
  const ir::Reg dport = b.HeaderRead(ir::HeaderField::kDstPort, "dport");
  const auto seen = ports.Find({ir::R(dport)}, "seen");
  const ir::Reg internal = b.Alu(ir::AluOp::kEq, ir::R(ingress),
                                 ir::Imm(mbox::kPortInternal), "internal");
  mb.IfElse(
      ir::R(internal),
      [&] {
        ports.Insert({ir::R(dport)}, {ir::R(sport)});
        b.HeaderWrite(ir::HeaderField::kSrcPort, ir::R(seen.values[0]));
        b.Send(ir::Imm(mbox::kPortExternal));
        b.Ret();
      },
      [&] {
        const ir::Reg cur = counter.Read("cur");
        const ir::Reg next = b.Alu(ir::AluOp::kAdd, ir::R(cur), ir::Imm(1),
                                   ir::Width::kU16, "next");
        counter.Write(ir::R(next));
        ports.Insert({ir::R(dport)}, {ir::R(sport)});
        b.HeaderWrite(ir::HeaderField::kSrcPort, ir::R(cur));
        b.Send(ir::Imm(mbox::kPortInternal));
        b.Ret();
      });
  mbox::MiddleboxSpec spec;
  spec.name = "queued_and_inline";
  GALLIUM_ASSIGN_OR_RETURN(spec.fn, std::move(mb).Finish());
  return spec;
}

net::Packet PortsPacket(uint32_t ingress, uint16_t sport, uint16_t dport) {
  net::Packet pkt = net::MakeTcpPacket(
      {net::MakeIpv4(10, 0, 0, 1), net::MakeIpv4(10, 0, 0, 2), sport, dport,
       net::kIpProtoTcp},
      net::kTcpAck, 0);
  pkt.set_ingress_port(ingress);
  return pkt;
}

TEST(Offloaded, InlineCommitLandsAfterOlderQueuedWrites) {
  auto spec = BuildQueuedAndInlineWriter();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const ir::StateIndex ports = spec->MapIndex("ports");
  OffloadedOptions options;
  options.sync_queue.max_backlog_batches = 64;
  options.sync_queue.pump_interval_packets = 1000;  // never pumps on its own
  auto mbx = OffloadedMiddlebox::Create(*spec, options);
  ASSERT_TRUE(mbx.ok()) << mbx.status().ToString();
  ASSERT_EQ((*mbx)->plan().state_placement.at(
                {ir::StateRef::Kind::kMap, ports}),
            partition::StatePlacement::kReplicated)
      << (*mbx)->plan().Summary(*spec->fn);

  // Older: a map-only write of key 80, deferred into the backlog.
  auto queued = (*mbx)->Process(PortsPacket(mbox::kPortInternal, 1, 80));
  ASSERT_TRUE(queued.status.ok()) << queued.status.ToString();
  ASSERT_TRUE(queued.sync_queued);
  // Later: the same key plus the global, committed inline. The backlog must
  // reach the switch first, or its stale write lands last.
  auto inline_commit = (*mbx)->Process(PortsPacket(mbox::kPortExternal, 2, 80));
  ASSERT_TRUE(inline_commit.status.ok()) << inline_commit.status.ToString();
  ASSERT_FALSE(inline_commit.sync_queued);
  ASSERT_TRUE(inline_commit.state_synced);
  (*mbx)->FlushSyncBacklog();

  StateValue host;
  ASSERT_TRUE((*mbx)->server_state().MapLookup(ports, {80}, &host));
  EXPECT_EQ(host, StateValue({2}));
  switchsim::TableValue replica;
  ASSERT_TRUE((*mbx)->device().table(ports)->Lookup({80}, &replica));
  EXPECT_EQ(replica, host) << "an older queued write overtook the inline batch";
}

// A batch carrying a global is delivered at once, and the older backlog
// travels with it in the same atomic batch: one control-plane batch, not a
// drain of the backlog followed by the packet's own batch.
TEST(Offloaded, GlobalBatchTakesTheBacklogInOneDelivery) {
  auto spec = BuildQueuedAndInlineWriter();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const ir::StateIndex ports = spec->MapIndex("ports");
  OffloadedOptions options;
  options.sync_queue.max_backlog_batches = 64;
  options.sync_queue.pump_interval_packets = 1000;  // never pumps on its own
  auto mbx = OffloadedMiddlebox::Create(*spec, options);
  ASSERT_TRUE(mbx.ok()) << mbx.status().ToString();

  for (uint16_t dport : {80, 81}) {
    auto queued = (*mbx)->Process(PortsPacket(mbox::kPortInternal, 1, dport));
    ASSERT_TRUE(queued.status.ok()) << queued.status.ToString();
    ASSERT_TRUE(queued.sync_queued);
  }
  ASSERT_EQ((*mbx)->sync_backlog().depth(), 2u);
  const auto& counters = (*mbx)->counters();
  const uint64_t batches_before = counters.sync_batches_sent->Value();
  auto commit = (*mbx)->Process(PortsPacket(mbox::kPortExternal, 2, 82));
  ASSERT_TRUE(commit.status.ok()) << commit.status.ToString();
  EXPECT_TRUE(commit.state_synced);
  EXPECT_EQ(counters.sync_batches_sent->Value(), batches_before + 1);
  EXPECT_EQ(counters.backlog_pumps->Value(), 0u);
  EXPECT_TRUE((*mbx)->sync_backlog().empty());

  // The one batch left the replica equal to the host store.
  const auto host = (*mbx)->server_state().map_contents(ports);
  ASSERT_EQ(host.size(), 3u);
  ASSERT_EQ((*mbx)->device().table(ports)->size(), host.size());
  for (const auto& [key, value] : host) {
    switchsim::TableValue replica;
    ASSERT_TRUE((*mbx)->device().table(ports)->Lookup(key, &replica));
    EXPECT_EQ(replica, value);
  }
  const ir::StateIndex counter = 0;  // the writer's only global
  EXPECT_EQ((*mbx)->device().data_plane().GlobalRead(counter),
            (*mbx)->server_state().GlobalRead(counter));
}

// What one run of a trace left behind: each packet's verdict and emitted
// bytes, and the state on both sides after the backlog is flushed.
struct PolicyRun {
  std::vector<Verdict> verdicts;
  std::vector<std::vector<uint8_t>> emitted;
  std::vector<std::map<StateKey, StateValue>> host_maps;
  std::vector<uint64_t> host_globals;
  // Per replicated map: the switch table probed at every host key, and the
  // table's size (equal to the host's iff the probe saw every entry).
  std::vector<std::map<StateKey, StateValue>> switch_maps;
  std::vector<size_t> switch_sizes;
  std::vector<uint64_t> switch_globals;
};

PolicyRun RunUnderPolicy(const mbox::MiddleboxSpec& spec,
                         const std::vector<net::Packet>& trace,
                         const SyncQueueOptions& policy) {
  PolicyRun run;
  OffloadedOptions options;
  options.sync_queue = policy;
  auto mbx = OffloadedMiddlebox::Create(spec, options);
  EXPECT_TRUE(mbx.ok()) << mbx.status().ToString();
  if (!mbx.ok()) return run;
  uint64_t now_ms = 0;
  for (const net::Packet& pkt : trace) {
    auto out = (*mbx)->Process(pkt, ++now_ms);
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_FALSE(out.shed);
    run.verdicts.push_back(out.verdict);
    run.emitted.push_back(out.verdict.kind == Verdict::Kind::kSend
                              ? out.out_packet.Serialize()
                              : std::vector<uint8_t>{});
  }
  (*mbx)->FlushSyncBacklog();

  const ir::Function& fn = (*mbx)->fn();
  switchsim::Switch& device = (*mbx)->device();
  for (ir::StateIndex m = 0; m < fn.maps().size(); ++m) {
    run.host_maps.push_back((*mbx)->server_state().map_contents(m));
    const switchsim::ExactMatchTable* table = device.table(m);
    if (table == nullptr) continue;
    std::map<StateKey, StateValue> probed;
    for (const auto& [key, value] : run.host_maps.back()) {
      switchsim::TableValue replica;
      if (table->Lookup(key, &replica)) probed[key] = replica;
    }
    run.switch_maps.push_back(std::move(probed));
    run.switch_sizes.push_back(table->size());
  }
  for (ir::StateIndex g = 0; g < fn.globals().size(); ++g) {
    run.host_globals.push_back((*mbx)->server_state().GlobalRead(g));
    if (device.IsResident({ir::StateRef::Kind::kGlobal, g})) {
      run.switch_globals.push_back(device.data_plane().GlobalRead(g));
    }
  }
  std::set<uint64_t> applied;
  for (const auto& [epoch, seq] : device.applied_log()) {
    EXPECT_TRUE(applied.insert(seq).second) << "sync seq " << seq
                                            << " applied twice";
  }
  return run;
}

// Strict commit, a backlog pumped every packet and a deep backpressure
// backlog reach the same verdicts, bytes and state on both sides: the sync
// policy only decides when the switch sees a batch, never what it sees.
TEST(Offloaded, EverySyncPolicyGivesTheSameResult) {
  SyncQueueOptions strict;
  SyncQueueOptions every_packet;
  every_packet.max_backlog_batches = 1;
  every_packet.pump_interval_packets = 1;
  SyncQueueOptions deep;
  deep.max_backlog_batches = 64;
  deep.pump_interval_packets = 32;
  deep.overflow = SyncQueueOptions::OverflowPolicy::kBackpressure;

  const std::pair<const char*, Result<mbox::MiddleboxSpec> (*)()> programs[] =
      {{"nat", &mbox::BuildMazuNat},
       {"lb", [] { return mbox::BuildLoadBalancer(); }},
       {"trojan", &mbox::BuildTrojanDetector}};
  for (const auto& [name, build] : programs) {
    SCOPED_TRACE(name);
    auto spec = build();
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    Rng rng(4242);
    workload::ChurnOptions churn;
    churn.num_packets = 600;
    churn.established_flows = 16;
    churn.burst_period = 200;
    churn.burst_len = 40;
    churn.ingress_port = mbox::kPortInternal;
    const auto trace = workload::MakeChurnTrace(rng, churn).packets;

    const PolicyRun want = RunUnderPolicy(*spec, trace, strict);
    ASSERT_EQ(want.verdicts.size(), trace.size());
    for (size_t m = 0; m < want.switch_maps.size(); ++m) {
      EXPECT_EQ(want.switch_sizes[m], want.switch_maps[m].size());
    }
    for (const SyncQueueOptions& policy : {every_packet, deep}) {
      SCOPED_TRACE("max_backlog_batches=" +
                   std::to_string(policy.max_backlog_batches));
      const PolicyRun got = RunUnderPolicy(*spec, trace, policy);
      EXPECT_EQ(got.verdicts, want.verdicts);
      EXPECT_EQ(got.emitted, want.emitted);
      EXPECT_EQ(got.host_maps, want.host_maps);
      EXPECT_EQ(got.host_globals, want.host_globals);
      EXPECT_EQ(got.switch_maps, want.switch_maps);
      EXPECT_EQ(got.switch_sizes, want.switch_sizes);
      EXPECT_EQ(got.switch_globals, want.switch_globals);
    }
  }
}

// A flow map on the switch plus a register the switch alone writes: every
// new flow records its source port there. Nothing reads the register, so
// the plan keeps it switch-only and the host copy lags until reconciled.
Result<mbox::MiddleboxSpec> BuildLastNewFlowMarker() {
  frontend::MiddleboxBuilder mb("last_new_flow");
  auto flows = mb.DeclareMap("flows", {ir::Width::kU16}, {ir::Width::kU8},
                             /*max_entries=*/1024);
  auto marker = mb.DeclareGlobal("last_new_sport", ir::Width::kU16, /*init=*/0);
  auto& b = mb.b();
  const ir::Reg sport = b.HeaderRead(ir::HeaderField::kSrcPort, "sport");
  const ir::Reg dport = b.HeaderRead(ir::HeaderField::kDstPort, "dport");
  const auto flow = flows.Find({ir::R(dport)}, "flow");
  mb.IfElse(
      ir::R(flow.found),
      [&] {
        b.Send(ir::Imm(mbox::kPortExternal));
        b.Ret();
      },
      [&] {
        flows.Insert({ir::R(dport)}, {ir::Imm(1)});
        marker.Write(ir::R(sport));
        b.Send(ir::Imm(mbox::kPortExternal));
        b.Ret();
      });
  mbox::MiddleboxSpec spec;
  spec.name = "last_new_flow";
  GALLIUM_ASSIGN_OR_RETURN(spec.fn, std::move(mb).Finish());
  return spec;
}

TEST(Offloaded, DegradedModeContinuesFromSlowPathSwitchGlobal) {
  auto spec = BuildLastNewFlowMarker();
  auto reference_spec = BuildLastNewFlowMarker();
  ASSERT_TRUE(spec.ok() && reference_spec.ok()) << spec.status().ToString();
  const ir::StateIndex marker = 0;
  FaultPlan plan;
  plan.outages = {{4, 8}};  // packets 4..7 find the switch down
  OffloadedOptions options;
  options.fault_plan = &plan;
  auto mbx = OffloadedMiddlebox::Create(*spec, options);
  ASSERT_TRUE(mbx.ok()) << mbx.status().ToString();
  ASSERT_EQ((*mbx)->plan().state_placement.at(
                {ir::StateRef::Kind::kGlobal, marker}),
            partition::StatePlacement::kSwitchOnly)
      << (*mbx)->plan().Summary(*spec->fn);

  SoftwareMiddlebox reference(*reference_spec);
  for (uint16_t i = 0; i < 10; ++i) {
    // Packets 0..3 open new flows on the slow path, which writes the
    // register on the switch; the rest revisit those flows and write
    // nothing, through the outage and after it.
    net::Packet pkt =
        PortsPacket(mbox::kPortInternal, 100 + i, 1000 + (i < 4 ? i : i % 4));
    net::Packet ref_pkt = pkt;
    auto out = (*mbx)->Process(pkt);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    ASSERT_EQ(out.degraded, i >= 4 && i < 8) << "packet " << i;
    ASSERT_EQ(out.fast_path, i >= 8) << "packet " << i;
    ASSERT_TRUE(reference.Process(ref_pkt).status.ok());
    const uint64_t want = reference.state().global_value(marker);
    EXPECT_EQ((*mbx)->server_state().global_value(marker), want)
        << "packet " << i;
    if (!out.degraded) {
      EXPECT_EQ((*mbx)->device().data_plane().GlobalRead(marker), want)
          << "packet " << i << ": the resync restored a stale register";
    }
  }
  EXPECT_EQ((*mbx)->counters().resyncs->Value(), 1u);
}

TEST(Offloaded, FailedReturnLinkResyncsOnTheNextPacket) {
  auto spec = mbox::BuildMiniLb();
  ASSERT_TRUE(spec.ok());
  const ir::StateIndex map = spec->MapIndex("map");
  FaultPlan plan;
  plan.to_switch.drop = 1.0;  // server -> switch frames never arrive
  OffloadedOptions options;
  options.fault_plan = &plan;
  options.sync_policy.max_data_attempts = 4;
  auto mbx = OffloadedMiddlebox::Create(*spec, options);
  ASSERT_TRUE(mbx.ok()) << mbx.status().ToString();

  net::Packet pkt = PortsPacket(mbox::kPortInternal, 5, 6);
  auto lost = (*mbx)->Process(pkt);
  ASSERT_FALSE(lost.status.ok()) << "the return leg exhausted its attempts";
  EXPECT_EQ((*mbx)->counters().data_retries->Value(), 3u);
  EXPECT_EQ((*mbx)->counters().resyncs->Value(), 0u);

  // The same flow again: the switch is rebuilt from the host store before
  // the pre pass, and the flow then stays on the switch.
  auto next = (*mbx)->Process(pkt);
  ASSERT_TRUE(next.status.ok()) << next.status.ToString();
  EXPECT_EQ((*mbx)->counters().resyncs->Value(), 1u);
  EXPECT_TRUE(next.fast_path);
  EXPECT_EQ((*mbx)->device().table(map)->size(),
            (*mbx)->server_state().MapSize(map));
}

TEST(Software, MatchesSpecInitialState) {
  auto spec = mbox::BuildProxy({8080});
  ASSERT_TRUE(spec.ok());
  SoftwareMiddlebox mbx(*spec);
  const ir::StateIndex ports = spec->MapIndex("redirect_ports");
  StateValue value;
  EXPECT_TRUE(mbx.state().MapLookup(ports, {8080}, &value));
  EXPECT_FALSE(mbx.state().MapLookup(ports, {80}, &value));
}

}  // namespace
}  // namespace gallium::runtime
