// Functional-equivalence tests — the paper's first correctness goal: "the
// combined effect of the two parts (the P4 program and the C++ code) should
// be functionally equivalent to the input middlebox program."
//
// Each test drives the same packet sequence through the software baseline
// (whole program interpreted against host state) and through the offloaded
// runtime (switch pre/post passes + server pass + state sync) and asserts
// identical verdicts, identical output headers, and converged state.
#include <gtest/gtest.h>

#include "mbox/middleboxes.h"
#include "runtime/offloaded_middlebox.h"
#include "runtime/software_middlebox.h"
#include "workload/packet_gen.h"

namespace gallium {
namespace {

using net::Packet;
using runtime::OffloadedMiddlebox;
using runtime::SoftwareMiddlebox;
using runtime::Verdict;

struct EquivalenceCase {
  std::string name;
  std::function<Result<mbox::MiddleboxSpec>()> build;
  workload::TraceOptions trace;
  // Fully-offloaded middleboxes (firewall, proxy) never touch the server.
  bool expect_slow_path = true;
};

// gtest would otherwise print the parameter's raw bytes (heap pointers
// included) into the test listing, and ctest names would change per build.
void PrintTo(const EquivalenceCase& c, std::ostream* os) { *os << c.name; }

std::vector<EquivalenceCase> MakeCases() {
  std::vector<EquivalenceCase> cases;

  {
    EquivalenceCase c;
    c.name = "mini_lb";
    c.build = [] { return mbox::BuildMiniLb(); };
    c.trace.num_flows = 60;
    cases.push_back(std::move(c));
  }
  {
    EquivalenceCase c;
    c.name = "mazu_nat_outbound";
    c.build = [] { return mbox::BuildMazuNat(); };
    c.trace.num_flows = 60;
    c.trace.ingress_port = mbox::kPortInternal;
    cases.push_back(std::move(c));
  }
  {
    EquivalenceCase c;
    c.name = "l4_lb";
    c.build = [] { return mbox::BuildLoadBalancer(); };
    c.trace.num_flows = 80;
    c.trace.udp_fraction = 0.3;
    cases.push_back(std::move(c));
  }
  {
    EquivalenceCase c;
    c.name = "proxy";
    c.build = [] { return mbox::BuildProxy({80, 8080, 443}); };
    c.trace.num_flows = 50;
    c.trace.udp_fraction = 0.2;
    c.expect_slow_path = false;  // the proxy is fully offloaded (§6.2)
    cases.push_back(std::move(c));
  }
  {
    EquivalenceCase c;
    c.name = "trojan_detector";
    c.build = [] { return mbox::BuildTrojanDetector(); };
    c.trace.num_flows = 50;
    c.trace.marked_fraction = 0.3;
    c.trace.marker = mbox::kPatternHttpGet;
    cases.push_back(std::move(c));
  }
  return cases;
}

class EquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

std::string HeadersOf(const Packet& pkt) {
  return pkt.ToString() + " ttl=" + std::to_string(pkt.ip().ttl) +
         " src=" + net::Ipv4ToString(pkt.ip().saddr) +
         " dst=" + net::Ipv4ToString(pkt.ip().daddr);
}

TEST_P(EquivalenceTest, OffloadedMatchesSoftwareBaseline) {
  const EquivalenceCase& param = GetParam();

  auto spec_a = param.build();
  auto spec_b = param.build();
  ASSERT_TRUE(spec_a.ok() && spec_b.ok());

  SoftwareMiddlebox software(*spec_a);
  auto offloaded = OffloadedMiddlebox::Create(*spec_b);
  ASSERT_TRUE(offloaded.ok()) << offloaded.status().ToString();

  Rng rng(2024);
  const workload::Trace trace = workload::MakeTrace(rng, param.trace);
  ASSERT_FALSE(trace.packets.empty());

  uint64_t now_ms = 0;
  int slow = 0;
  for (const Packet& original : trace.packets) {
    now_ms += 1;
    Packet sw_pkt = original;
    auto sw_out = software.Process(sw_pkt, now_ms);
    ASSERT_TRUE(sw_out.status.ok()) << sw_out.status.ToString();

    auto off_out = (*offloaded)->Process(original, now_ms);
    ASSERT_TRUE(off_out.status.ok())
        << off_out.status.ToString() << " pkt=" << original.ToString();

    ASSERT_EQ(sw_out.verdict.kind, off_out.verdict.kind)
        << "verdict mismatch on " << original.ToString();
    if (sw_out.verdict.kind == Verdict::Kind::kSend) {
      EXPECT_EQ(sw_out.verdict.egress_port, off_out.verdict.egress_port);
      EXPECT_EQ(HeadersOf(sw_pkt), HeadersOf(off_out.out_packet))
          << "rewritten headers differ on " << original.ToString();
      EXPECT_EQ(sw_pkt.payload(), off_out.out_packet.payload());
    }
    if (!off_out.fast_path) ++slow;
  }

  // The traces create new flows, so some packets must take the slow path;
  // but established flows must be handled by the switch alone.
  if (param.expect_slow_path) {
    EXPECT_GT(slow, 0);
    EXPECT_LT(slow, static_cast<int>(trace.packets.size()))
        << "fast path never engaged";
  } else {
    EXPECT_EQ(slow, 0) << param.name << " should be fully offloaded";
  }

  // State convergence: for every replicated map, the switch table contents
  // must equal the server's authoritative copy.
  const auto& plan = (*offloaded)->plan();
  for (const auto& [ref, placement] : plan.state_placement) {
    if (placement != partition::StatePlacement::kReplicated ||
        ref.kind != ir::StateRef::Kind::kMap) {
      continue;
    }
    auto* table = (*offloaded)->device().table(ref.index);
    ASSERT_NE(table, nullptr);
    const auto& server_map = (*offloaded)->server_state().map_contents(ref.index);
    EXPECT_EQ(table->size(), server_map.size())
        << "replicated map " << (*offloaded)->fn().StateName(ref)
        << " diverged";
    for (const auto& [key, value] : server_map) {
      runtime::StateValue switch_value;
      EXPECT_TRUE(table->Lookup(key, &switch_value));
      EXPECT_EQ(switch_value, value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMiddleboxes, EquivalenceTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return info.param.name;
    });

// The firewall needs rules that match generated traffic, so it gets a
// dedicated test: half the flows are whitelisted, half are not.
TEST(EquivalenceFirewall, WhitelistedFlowsPassOthersDrop) {
  Rng rng(7);
  std::vector<net::FiveTuple> flows;
  std::vector<mbox::MapInitEntry> rules;
  for (int i = 0; i < 40; ++i) {
    const net::FiveTuple flow = workload::RandomFlow(rng);
    flows.push_back(flow);
    if (i % 2 == 0) {
      rules.push_back(mbox::MapInitEntry{
          {flow.saddr, flow.daddr, flow.sport, flow.dport, flow.protocol},
          {1}});
    }
  }

  auto spec_a = mbox::BuildFirewall(rules);
  auto spec_b = mbox::BuildFirewall(rules);
  ASSERT_TRUE(spec_a.ok() && spec_b.ok());
  SoftwareMiddlebox software(*spec_a);
  auto offloaded = OffloadedMiddlebox::Create(*spec_b);
  ASSERT_TRUE(offloaded.ok()) << offloaded.status().ToString();

  int sent = 0, dropped = 0;
  for (size_t i = 0; i < flows.size(); ++i) {
    for (const Packet& pkt : workload::TcpFlowPackets(flows[i], 4000)) {
      Packet p1 = pkt;
      p1.set_ingress_port(mbox::kPortInternal);
      Packet p2 = p1;
      auto sw_out = software.Process(p1);
      auto off_out = (*offloaded)->Process(p2);
      ASSERT_TRUE(sw_out.status.ok());
      ASSERT_TRUE(off_out.status.ok()) << off_out.status.ToString();
      ASSERT_EQ(sw_out.verdict.kind, off_out.verdict.kind);
      EXPECT_TRUE(off_out.fast_path)
          << "firewall must be fully offloaded; packet " << pkt.ToString();
      (off_out.verdict.kind == Verdict::Kind::kSend ? sent : dropped) += 1;
    }
  }
  EXPECT_GT(sent, 0);
  EXPECT_GT(dropped, 0);
  EXPECT_DOUBLE_EQ((*offloaded)->FastPathFraction(), 1.0);
}

// NAT round trip: outbound packets create mappings; the corresponding
// inbound packets must be rewritten back to the internal endpoint by both
// runtimes identically.
TEST(EquivalenceNat, BidirectionalTranslation) {
  auto spec_a = mbox::BuildMazuNat();
  auto spec_b = mbox::BuildMazuNat();
  ASSERT_TRUE(spec_a.ok() && spec_b.ok());
  SoftwareMiddlebox software(*spec_a);
  auto offloaded = OffloadedMiddlebox::Create(*spec_b);
  ASSERT_TRUE(offloaded.ok()) << offloaded.status().ToString();

  Rng rng(99);
  for (int i = 0; i < 30; ++i) {
    const net::FiveTuple flow = workload::RandomFlow(rng);
    // Outbound SYN allocates a port.
    Packet out_sw = net::MakeTcpPacket(flow, net::kTcpSyn, 0);
    out_sw.set_ingress_port(mbox::kPortInternal);
    Packet out_off = out_sw;
    auto sw1 = software.Process(out_sw);
    auto off1 = (*offloaded)->Process(out_off);
    ASSERT_TRUE(sw1.status.ok() && off1.status.ok())
        << off1.status.ToString();
    ASSERT_EQ(sw1.verdict.kind, Verdict::Kind::kSend);
    ASSERT_EQ(off1.verdict.kind, Verdict::Kind::kSend);
    ASSERT_EQ(out_sw.ip().saddr, mbox::kNatExternalIp);
    ASSERT_EQ(out_sw.sport(), off1.out_packet.sport())
        << "allocated ports must match";

    // Reply arrives from outside addressed to the allocated port.
    net::FiveTuple reply;
    reply.saddr = flow.daddr;
    reply.daddr = mbox::kNatExternalIp;
    reply.sport = flow.dport;
    reply.dport = out_sw.sport();
    reply.protocol = net::kIpProtoTcp;
    Packet in_sw = net::MakeTcpPacket(reply, net::kTcpSyn | net::kTcpAck, 0);
    in_sw.set_ingress_port(mbox::kPortExternal);
    Packet in_off = in_sw;
    auto sw2 = software.Process(in_sw);
    auto off2 = (*offloaded)->Process(in_off);
    ASSERT_TRUE(sw2.status.ok() && off2.status.ok());
    ASSERT_EQ(sw2.verdict.kind, Verdict::Kind::kSend);
    ASSERT_EQ(off2.verdict.kind, Verdict::Kind::kSend);
    EXPECT_EQ(in_sw.ip().daddr, flow.saddr) << "rewritten to internal host";
    EXPECT_EQ(in_sw.ip().daddr, off2.out_packet.ip().daddr);
    EXPECT_EQ(in_sw.dport(), off2.out_packet.dport());
    // The reply of an established mapping rides the switch fast path.
    EXPECT_TRUE(off2.fast_path);
  }
}

}  // namespace
}  // namespace gallium
