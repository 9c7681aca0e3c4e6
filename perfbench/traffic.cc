// Seeded programs and traffic for the packet workloads.
//
// The program only ever sees the generated packets. Return traffic is what a
// real peer would send: the reverse of the tuple the middlebox emitted for
// the flow's SYN, learned by running the SYN through the software baseline.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "perfbench.h"
#include "runtime/software_middlebox.h"
#include "util/rng.h"
#include "workload/churn.h"
#include "workload/packet_gen.h"

namespace perfbench {

using gallium::Rng;
using gallium::mbox::MiddleboxSpec;
using gallium::net::FiveTuple;
using gallium::net::Packet;

namespace {

// Flows per program in steady / threaded, and packets per timed pass.
constexpr int kSteadyFlows = 256;
constexpr int kSteadyPackets = 4096;
// Flows that close and reopen (FIN, then SYN) once per pass: steady traffic
// still turns connections over, which keeps the slow path warm without
// changing the state a pass starts from.
constexpr int kReconnectsPerPass = 16;
// 54 bytes of Ethernet/IPv4/TCP headers + 6 = the 60-byte minimum frame:
// the smallest data segment, where per-packet cost dominates.
constexpr size_t kSmallestPayload = 6;
// Churn trace per program and pass.
constexpr uint64_t kChurnPackets = 16384;
constexpr int kRoutes = 1024;

MiddleboxSpec Must(gallium::Result<MiddleboxSpec> spec, const char* what) {
  if (!spec.ok()) {
    std::fprintf(stderr, "perfbench: building %s failed: %s\n", what,
                 spec.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(spec).value();
}

Packet Data(const FiveTuple& ft, uint32_t ingress, uint32_t seq) {
  Packet pkt = gallium::net::MakeTcpPacket(
      ft, gallium::net::kTcpAck | gallium::net::kTcpPsh, kSmallestPayload, seq);
  pkt.set_ingress_port(ingress);
  return pkt;
}

// Firewall whitelists: nine in ten of the program's flows (both directions)
// plus unrelated padding rules, so most traffic passes and a tenth is
// dropped on the switch. Random tuples alone would drop every packet.
MiddleboxSpec SeededFirewall(const std::vector<FiveTuple>& flows, Rng& rng) {
  std::vector<gallium::mbox::MapInitEntry> out_rules, in_rules;
  auto rule = [](const FiveTuple& ft) {
    return gallium::mbox::MapInitEntry{
        {ft.saddr, ft.daddr, ft.sport, ft.dport, ft.protocol}, {1}};
  };
  const size_t allowed = flows.size() * 9 / 10;
  for (size_t i = 0; i < allowed; ++i) {
    out_rules.push_back(rule(flows[i]));
    in_rules.push_back(rule(flows[i].Reversed()));
  }
  for (int i = 0; i < 1024; ++i) {
    const FiveTuple pad = gallium::workload::RandomFlow(rng);
    out_rules.push_back(rule(pad));
    in_rules.push_back(rule(pad.Reversed()));
  }
  return Must(gallium::mbox::BuildFirewall(out_rules, in_rules), "firewall");
}

// Tuple the middlebox emits for `pkt` (the input tuple when it drops).
FiveTuple EmittedTuple(gallium::runtime::SoftwareMiddlebox& sw, Packet pkt,
                       uint64_t now_ms) {
  const FiveTuple in = pkt.five_tuple();
  auto outcome = sw.Process(pkt, now_ms);
  if (outcome.status.ok() &&
      outcome.verdict.kind == gallium::runtime::Verdict::Kind::kSend) {
    return pkt.five_tuple();
  }
  return in;
}

Program SteadyProgram(const std::string& name, Shape shape, Rng rng) {
  std::vector<FiveTuple> flows;
  for (int i = 0; i < kSteadyFlows; ++i) {
    FiveTuple ft = gallium::workload::RandomFlow(rng);
    // Exactly half the proxy's flows hit its redirect list. No flow opens
    // SSH, so the Trojan Detector keeps every host on the fast path.
    if (name == "proxy") ft.dport = (i % 2 == 0) ? 80 : 443;
    if (ft.dport == 22) ft.dport = 23;
    flows.push_back(ft);
  }

  Program p;
  p.name = name;
  MiddleboxSpec spec;
  if (name == "nat") {
    spec = Must(gallium::mbox::BuildMazuNat(), "nat");
  } else if (name == "lb") {
    spec = Must(gallium::mbox::BuildLoadBalancer(), "lb");
  } else if (name == "firewall") {
    spec = SeededFirewall(flows, rng);
  } else if (name == "proxy") {
    spec = Must(gallium::mbox::BuildProxy(), "proxy");
  } else if (name == "trojan") {
    spec = Must(gallium::mbox::BuildTrojanDetector(), "trojan");
  } else {
    spec = Must(BuildSeededRouter(rng.NextU64()), "router");
  }
  p.spec = std::make_unique<MiddleboxSpec>(std::move(spec));

  // Handshakes, and the return tuple each flow's peer answers on.
  gallium::runtime::SoftwareMiddlebox sw(*p.spec);
  std::vector<FiveTuple> returns;
  for (size_t i = 0; i < flows.size(); ++i) {
    Packet syn = gallium::net::MakeTcpPacket(flows[i], gallium::net::kTcpSyn, 0);
    syn.set_ingress_port(gallium::mbox::kPortInternal);
    returns.push_back(EmittedTuple(sw, syn, i).Reversed());
    p.warmup.push_back(std::move(syn));
  }

  std::vector<uint32_t> fwd_seq(flows.size(), 1), ret_seq(flows.size(), 1);
  for (int k = 0; k < kSteadyPackets; ++k) {
    const size_t f = rng.NextBounded(flows.size());
    const bool forward = shape == Shape::kForward || k % 2 == 0;
    if (forward) {
      p.trace.push_back(Data(flows[f], gallium::mbox::kPortInternal,
                             fwd_seq[f]));
      fwd_seq[f] += kSmallestPayload;
    } else {
      p.trace.push_back(Data(returns[f], gallium::mbox::kPortExternal,
                             ret_seq[f]));
      ret_seq[f] += kSmallestPayload;
    }
  }
  for (int r = 0; r < kReconnectsPerPass; ++r) {
    const FiveTuple& ft = flows[rng.NextBounded(flows.size())];
    Packet fin = gallium::net::MakeTcpPacket(
        ft, gallium::net::kTcpFin | gallium::net::kTcpAck, 0);
    fin.set_ingress_port(gallium::mbox::kPortInternal);
    Packet syn = gallium::net::MakeTcpPacket(ft, gallium::net::kTcpSyn, 0);
    syn.set_ingress_port(gallium::mbox::kPortInternal);
    const auto at = p.trace.begin() + static_cast<std::ptrdiff_t>(
                                           rng.NextBounded(p.trace.size()));
    p.trace.insert(p.trace.insert(at, std::move(syn)), std::move(fin));
  }
  // One untimed pass opens the return flows the LB and the Trojan Detector
  // track per direction, so every timed pass sees the same state.
  p.warmup.insert(p.warmup.end(), p.trace.begin(), p.trace.end());
  return p;
}

Program ChurnProgram(const std::string& name, Rng rng) {
  Program p;
  p.name = name;
  if (name == "nat") {
    p.spec = std::make_unique<MiddleboxSpec>(
        Must(gallium::mbox::BuildMazuNat(), "nat"));
  } else if (name == "lb") {
    p.spec = std::make_unique<MiddleboxSpec>(
        Must(gallium::mbox::BuildLoadBalancer(), "lb"));
  } else {
    p.spec = std::make_unique<MiddleboxSpec>(
        Must(gallium::mbox::BuildTrojanDetector(), "trojan"));
  }
  gallium::workload::ChurnOptions churn;
  churn.num_packets = kChurnPackets;
  churn.new_flow_fraction = 0.7;
  churn.established_flows = 32;
  churn.burst_period = 2048;
  churn.burst_len = 128;
  p.trace = gallium::workload::MakeChurnTrace(rng, churn).packets;
  return p;
}

}  // namespace

gallium::Result<MiddleboxSpec> BuildSeededRouter(uint64_t seed) {
  Rng rng(seed);
  // Mixed prefix lengths over the address ranges the traffic uses (clients
  // in 192.168/16, servers in 172.16/16) plus a default route, so lookups
  // resolve at many different depths.
  static constexpr uint32_t kLengths[] = {8, 12, 16, 18, 20, 22, 24, 26, 28, 32};
  std::vector<gallium::mbox::RouteEntry> routes;
  routes.push_back({0, 0, 7, 0x0000000000000007ull});
  for (int i = 1; i < kRoutes; ++i) {
    const uint64_t pick = rng.NextBounded(10);
    uint32_t addr = static_cast<uint32_t>(rng.NextU64());
    if (pick < 5) addr = 0xac100000u | (addr & 0xffffu);       // 172.16/16
    else if (pick < 8) addr = 0xc0a80000u | (addr & 0xffffu);  // 192.168/16
    const uint32_t len =
        kLengths[rng.NextBounded(sizeof(kLengths) / sizeof(kLengths[0]))];
    const uint32_t mask = len == 0 ? 0 : ~uint32_t{0} << (32 - len);
    routes.push_back({addr & mask, len,
                      static_cast<uint32_t>(rng.NextBounded(8)),
                      rng.NextU64() & 0xffffffffffffull});
  }
  return gallium::mbox::BuildIpRouter(routes);
}

std::vector<Program> MakePrograms(Shape shape, uint64_t seed) {
  Rng base(seed);
  std::vector<Program> programs;
  if (shape == Shape::kChurn) {
    for (const char* name : {"nat", "lb", "trojan"}) {
      programs.push_back(ChurnProgram(name, base.Fork()));
    }
    return programs;
  }
  for (const char* name : {"nat", "lb", "firewall", "proxy", "trojan",
                           "router"}) {
    programs.push_back(SteadyProgram(name, shape, base.Fork()));
  }
  return programs;
}

gallium::engine::EngineOptions EngineOptionsFor(Shape shape) {
  gallium::engine::EngineOptions options;
  options.burst = 32;
  options.workers = shape == Shape::kForward ? 2 : 4;
  options.threaded = shape == Shape::kForward;
  if (shape == Shape::kChurn) {
    options.runtime.sync_queue.max_backlog_batches = 64;
    options.runtime.sync_queue.pump_interval_packets = 32;
    options.runtime.sync_queue.overflow =
        gallium::runtime::SyncQueueOptions::OverflowPolicy::kBackpressure;
  }
  return options;
}

}  // namespace perfbench
