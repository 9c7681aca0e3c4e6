// Tests for the §7 LPM extension: host/table longest-prefix semantics, the
// IP router middlebox end to end (software, offloaded, and the executed P4
// artifact with its native lpm match kind).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/compiler.h"
#include "frontend/middlebox_builder.h"
#include "ir/builder.h"
#include "mbox/middleboxes.h"
#include "p4/evaluator.h"
#include "p4/parser.h"
#include "runtime/offloaded_middlebox.h"
#include "runtime/software_middlebox.h"
#include "runtime/state.h"
#include "switchsim/table.h"
#include "workload/packet_gen.h"

namespace gallium {
namespace {

std::vector<mbox::RouteEntry> TestRoutes() {
  return {
      // Default route: everything -> port 9 via gateway.
      {net::MakeIpv4(0, 0, 0, 0), 0, 9, 0x0000000000000009ull},
      // 10.0.0.0/8 -> port 1.
      {net::MakeIpv4(10, 0, 0, 0), 8, 1, 0x0000000000000001ull},
      // 10.1.0.0/16 -> port 2 (more specific).
      {net::MakeIpv4(10, 1, 0, 0), 16, 2, 0x0000000000000002ull},
      // 10.1.2.0/24 -> port 3 (most specific).
      {net::MakeIpv4(10, 1, 2, 0), 24, 3, 0x0000000000000003ull},
  };
}

net::Packet To(net::Ipv4Addr daddr, uint8_t ttl = 64) {
  net::Packet pkt = net::MakeTcpPacket(
      {net::MakeIpv4(192, 168, 0, 1), daddr, 1000, 80, net::kIpProtoTcp},
      net::kTcpAck, 64);
  pkt.ip().ttl = ttl;
  pkt.set_ingress_port(0);
  return pkt;
}

// --- Host-store semantics -----------------------------------------------------

TEST(LpmHostStore, LongestPrefixWins) {
  auto spec = mbox::BuildIpRouter(TestRoutes());
  ASSERT_TRUE(spec.ok());
  runtime::SoftwareMiddlebox mbx(*spec);

  struct Case {
    net::Ipv4Addr daddr;
    uint32_t port;
  };
  const Case cases[] = {
      {net::MakeIpv4(10, 1, 2, 99), 3},   // /24
      {net::MakeIpv4(10, 1, 9, 1), 2},    // /16
      {net::MakeIpv4(10, 200, 0, 1), 1},  // /8
      {net::MakeIpv4(8, 8, 8, 8), 9},     // default
  };
  for (const Case& c : cases) {
    net::Packet pkt = To(c.daddr);
    auto out = mbx.Process(pkt);
    ASSERT_TRUE(out.status.ok());
    ASSERT_EQ(out.verdict.kind, runtime::Verdict::Kind::kSend)
        << net::Ipv4ToString(c.daddr);
    EXPECT_EQ(out.verdict.egress_port, c.port) << net::Ipv4ToString(c.daddr);
    EXPECT_EQ(pkt.ip().ttl, 63) << "TTL decremented";
    EXPECT_EQ(pkt.eth().dst.ToUint64(), static_cast<uint64_t>(c.port))
        << "next-hop MAC rewritten";
  }
}

TEST(LpmHostStore, NoRouteDropsWhenNoDefault) {
  auto spec = mbox::BuildIpRouter(
      {{net::MakeIpv4(10, 0, 0, 0), 8, 1, 0x01}});
  ASSERT_TRUE(spec.ok());
  runtime::SoftwareMiddlebox mbx(*spec);
  net::Packet pkt = To(net::MakeIpv4(8, 8, 8, 8));
  EXPECT_EQ(mbx.Process(pkt).verdict.kind, runtime::Verdict::Kind::kDrop);
}

TEST(LpmHostStore, TtlExpiryDrops) {
  auto spec = mbox::BuildIpRouter(TestRoutes());
  ASSERT_TRUE(spec.ok());
  runtime::SoftwareMiddlebox mbx(*spec);
  net::Packet pkt = To(net::MakeIpv4(10, 1, 2, 3), /*ttl=*/1);
  EXPECT_EQ(mbx.Process(pkt).verdict.kind, runtime::Verdict::Kind::kDrop);
}

// --- Verifier guard ------------------------------------------------------------

TEST(Lpm, DataPathInsertsRejected) {
  frontend::MiddleboxBuilder mb("bad_lpm");
  ir::MapDecl decl;
  decl.name = "routes";
  decl.key_widths = {ir::Width::kU32};
  decl.value_widths = {ir::Width::kU32};
  decl.max_entries = 16;
  decl.match_kind = ir::MapDecl::MatchKind::kLpm;
  const ir::StateIndex routes = mb.fn().AddMap(std::move(decl));
  auto& b = mb.b();
  const ir::Reg daddr = b.HeaderRead(ir::HeaderField::kIpDst);
  const ir::Value key[] = {ir::R(daddr)};
  const ir::Value value[] = {ir::Imm(1)};
  b.MapPut(routes, key, value);  // illegal: LPM maps are config-only
  b.Send(ir::Imm(1));
  auto fn = std::move(mb).Finish();
  EXPECT_FALSE(fn.ok());
  EXPECT_NE(fn.status().message().find("LPM"), std::string::npos);
}

// --- Switch table -------------------------------------------------------------

TEST(LpmSwitchTable, MatchesLongestAcrossWriteBackWindow) {
  switchsim::ExactMatchTable table("routes", 1, 1, 64,
                                   switchsim::ExactMatchTable::MatchKind::kLpm);
  // /8 in main, /24 staged.
  ASSERT_TRUE(table.InsertMain({net::MakeIpv4(10, 0, 0, 0), 8}, {1}).ok());
  ASSERT_TRUE(
      table.Stage({net::MakeIpv4(10, 1, 2, 0), 24},
                  switchsim::TableValue{3})
          .ok());

  switchsim::TableValue value;
  // Before the flip only the /8 is visible.
  EXPECT_TRUE(table.Lookup({net::MakeIpv4(10, 1, 2, 9)}, &value));
  EXPECT_EQ(value[0], 1u);
  // After the flip the staged, longer prefix wins.
  table.SetUseWriteBack(true);
  EXPECT_TRUE(table.Lookup({net::MakeIpv4(10, 1, 2, 9)}, &value));
  EXPECT_EQ(value[0], 3u);
  // A staged deletion falls through to the shorter prefix.
  ASSERT_TRUE(table.Stage({net::MakeIpv4(10, 1, 2, 0), 24}, std::nullopt).ok());
  EXPECT_TRUE(table.Lookup({net::MakeIpv4(10, 1, 2, 9)}, &value));
  EXPECT_EQ(value[0], 1u);
}

// --- Differential: host store vs switch table vs a linear scan ---------------

using Route = std::pair<uint64_t, uint64_t>;  // {prefix, prefix_len}
using RouteSet = std::map<Route, uint64_t>;   // -> port

uint64_t PrefixMask(uint64_t len) {
  return len == 0 ? 0 : (0xffffffffull << (32 - len)) & 0xffffffffull;
}

// The naive reference: scan every route, keep the longest that covers addr.
struct FlatRoute {
  uint64_t prefix, mask, len, port;
};
bool LinearLongestPrefix(const std::vector<FlatRoute>& routes, uint64_t addr,
                         uint64_t* port) {
  int best = -1;
  for (const FlatRoute& r : routes) {
    if ((addr & r.mask) == r.prefix && static_cast<int>(r.len) > best) {
      best = static_cast<int>(r.len);
      *port = r.port;
    }
  }
  return best >= 0;
}

// Seeded routes shaped like a router's table: /16..32 prefixes under a few
// hundred /16s, the default route, host routes, and the same prefix at
// several lengths.
RouteSet SeededRoutes(Rng& rng, int count) {
  RouteSet routes;
  routes[{0, 0}] = 1;
  std::vector<uint64_t> sixteens;
  for (int i = 0; i < 256; ++i) sixteens.push_back(rng.NextU32() & 0xffff0000u);
  for (uint64_t base : {sixteens[0], sixteens[1]}) {
    for (uint64_t len : {8, 12, 16, 24, 32}) {
      routes[{base & PrefixMask(len), len}] = 100 + len;
    }
  }
  while (static_cast<int>(routes.size()) < count) {
    const uint64_t len = rng.NextBool(0.1) ? rng.NextBounded(33)
                                           : 16 + rng.NextBounded(17);
    const uint64_t addr =
        sixteens[rng.NextBounded(sixteens.size())] | (rng.NextU32() & 0xffff);
    routes[{addr & PrefixMask(len), len}] = 2 + rng.NextBounded(1u << 20);
  }
  return routes;
}

std::vector<uint64_t> ProbeAddresses(Rng& rng, const RouteSet& routes) {
  std::vector<uint64_t> probes;
  for (const auto& [route, value] : routes) {
    const auto [prefix, len] = route;
    probes.push_back(prefix);
    probes.push_back(prefix | (~PrefixMask(len) & 0xffffffffull));
    probes.push_back((prefix - 1) & 0xffffffffull);
    probes.push_back(prefix | (rng.NextU32() & ~PrefixMask(len) & 0xffffffffu));
  }
  for (int i = 0; i < 512; ++i) probes.push_back(rng.NextU32());
  return probes;
}

TEST(LpmDifferential, HostStoreSwitchTableAndLinearScanAgree) {
  constexpr int kRoutes = 3000;  // past the first grow of either table
  for (const uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    RouteSet routes = SeededRoutes(rng, kRoutes);

    auto spec = mbox::BuildIpRouter({});
    ASSERT_TRUE(spec.ok());
    const ir::StateIndex map = spec->MapIndex("routes");
    runtime::HostStateStore host(*spec->fn);
    switchsim::ExactMatchTable table(
        "routes", 1, 2, /*max_entries=*/4 * kRoutes,
        switchsim::ExactMatchTable::MatchKind::kLpm);
    for (const auto& [route, port] : routes) {
      host.MapInsert(map, {route.first, route.second}, {port, port << 8});
      ASSERT_TRUE(
          table.InsertMain({route.first, route.second}, {port, port << 8})
              .ok());
    }
    ASSERT_EQ(host.MapSize(map), routes.size());
    ASSERT_EQ(table.size(), routes.size());
    EXPECT_GE(host.flow_table(map)->stats().resizes, 1u);

    // Every view is checked against the linear scan over `want`.
    const auto check = [&](const RouteSet& want, bool check_host,
                           const std::string& view) {
      SCOPED_TRACE(view);
      std::vector<FlatRoute> flat;
      for (const auto& [route, port] : want) {
        flat.push_back({route.first, PrefixMask(route.second), route.second,
                        port});
      }
      Rng probe_rng(seed * 7);
      for (uint64_t addr : ProbeAddresses(probe_rng, want)) {
        uint64_t port = 0;
        const bool hit = LinearLongestPrefix(flat, addr, &port);
        const runtime::StateValue expect =
            hit ? runtime::StateValue{port, port << 8}
                : runtime::StateValue{0, 0};
        switchsim::TableValue got;
        ASSERT_EQ(table.Lookup({addr}, &got), hit) << std::hex << addr;
        ASSERT_EQ(got, expect) << std::hex << addr;
        if (!check_host) continue;
        runtime::StateValue host_got;
        ASSERT_EQ(host.MapLookup(map, {addr}, &host_got), hit)
            << std::hex << addr;
        ASSERT_EQ(host_got, expect) << std::hex << addr;
      }
    };
    check(routes, /*check_host=*/true, "installed");

    // Stage overrides, deletes (the default route and a host route among
    // them) and new routes; apply the same edits to the host and the
    // reference.
    RouteSet edited = routes;
    std::vector<std::pair<Route, std::optional<uint64_t>>> staged;
    staged.push_back({{0, 0}, std::nullopt});
    int n = 0;
    for (const auto& [route, port] : routes) {
      if (++n % 13 == 0) {
        staged.push_back({route, std::nullopt});
      } else if (n % 11 == 0) {
        staged.push_back({route, port + 7});
      } else if (route.second == 32 && staged.size() < 8) {
        staged.push_back({route, std::nullopt});
      }
    }
    for (int i = 0; i < 64; ++i) {
      const uint64_t len = 20 + rng.NextBounded(13);
      staged.push_back(
          {{rng.NextU32() & PrefixMask(len), len}, 5000 + rng.NextBounded(99)});
    }
    for (const auto& [route, port] : staged) {
      const runtime::StateKey key = {route.first, route.second};
      if (port.has_value()) {
        ASSERT_TRUE(table.Stage(key, switchsim::TableValue{*port, *port << 8})
                        .ok());
        host.MapInsert(map, key, {*port, *port << 8});
        edited[route] = *port;
      } else {
        ASSERT_TRUE(table.Stage(key, std::nullopt).ok());
        host.MapErase(map, key);
        edited.erase(route);
      }
    }
    ASSERT_EQ(host.MapSize(map), edited.size());

    check(routes, /*check_host=*/false, "staged, window closed");
    table.SetUseWriteBack(true);
    check(edited, /*check_host=*/true, "staged, window open");
    ASSERT_TRUE(table.ApplyStagedToMain().ok());
    table.SetUseWriteBack(false);
    ASSERT_EQ(table.size(), edited.size());
    check(edited, /*check_host=*/true, "applied");
  }
}

// --- Full pipeline --------------------------------------------------------------

TEST(LpmRouter, FullyOffloadedAndEquivalent) {
  auto spec_sw = mbox::BuildIpRouter(TestRoutes());
  auto spec_off = mbox::BuildIpRouter(TestRoutes());
  ASSERT_TRUE(spec_sw.ok() && spec_off.ok());

  // The router's plan: everything on the switch.
  core::Compiler compiler;
  auto compiled = compiler.Compile(*spec_off->fn);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->plan.num_non_offloaded, 0)
      << compiled->plan.Summary(*spec_off->fn);
  EXPECT_NE(compiled->p4_source.find(": lpm"), std::string::npos)
      << "the route table must use P4's native lpm match kind";

  runtime::SoftwareMiddlebox software(*spec_sw);
  auto offloaded = runtime::OffloadedMiddlebox::Create(*spec_off);
  ASSERT_TRUE(offloaded.ok()) << offloaded.status().ToString();

  Rng rng(808);
  for (int i = 0; i < 200; ++i) {
    const net::Ipv4Addr daddr =
        rng.NextBool(0.5) ? net::MakeIpv4(10, rng.NextBounded(256),
                                          rng.NextBounded(256),
                                          rng.NextBounded(256))
                          : rng.NextU32();
    net::Packet pkt = To(daddr, static_cast<uint8_t>(1 + rng.NextBounded(64)));
    net::Packet sw_pkt = pkt;
    auto sw_out = software.Process(sw_pkt);
    auto off_out = (*offloaded)->Process(pkt);
    ASSERT_TRUE(sw_out.status.ok() && off_out.status.ok());
    ASSERT_EQ(sw_out.verdict.kind, off_out.verdict.kind)
        << net::Ipv4ToString(daddr);
    if (sw_out.verdict.kind == runtime::Verdict::Kind::kSend) {
      ASSERT_EQ(sw_out.verdict.egress_port, off_out.verdict.egress_port);
      ASSERT_EQ(sw_pkt.eth().dst.ToUint64(),
                off_out.out_packet.eth().dst.ToUint64());
      EXPECT_TRUE(off_out.fast_path);
    }
  }
  EXPECT_DOUBLE_EQ((*offloaded)->FastPathFraction(), 1.0);
}

TEST(LpmRouter, ExecutedP4ArtifactMatches) {
  auto spec = mbox::BuildIpRouter(TestRoutes());
  ASSERT_TRUE(spec.ok());
  core::Compiler compiler;
  auto compiled = compiler.Compile(*spec->fn);
  ASSERT_TRUE(compiled.ok());
  auto parsed = p4::exec::ParseP4(compiled->p4_source);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto* table = (*parsed)->FindTable("tbl_routes");
  ASSERT_NE(table, nullptr);
  EXPECT_TRUE(table->lpm);

  p4::exec::P4Evaluator eval(**parsed);
  for (const mbox::RouteEntry& route : TestRoutes()) {
    p4::exec::TableEntry entry;
    entry.key = {route.prefix, route.prefix_len};
    entry.action = "act_routes_hit";
    entry.args = {route.egress_port, route.next_hop_mac};
    ASSERT_TRUE(eval.InstallEntry("tbl_routes", std::move(entry)).ok());
  }

  auto spec_ref = mbox::BuildIpRouter(TestRoutes());
  ASSERT_TRUE(spec_ref.ok());
  runtime::SoftwareMiddlebox reference(*spec_ref);

  Rng rng(809);
  for (int i = 0; i < 100; ++i) {
    const net::Ipv4Addr daddr =
        rng.NextBool(0.6) ? net::MakeIpv4(10, rng.NextBounded(256),
                                          rng.NextBounded(256),
                                          rng.NextBounded(256))
                          : rng.NextU32();
    net::Packet p4_pkt = To(daddr);
    net::Packet ref_pkt = p4_pkt;
    auto p4_result = eval.RunIngress(p4_pkt);
    ASSERT_TRUE(p4_result.ok()) << p4_result.status().ToString();
    auto ref_result = reference.Process(ref_pkt);
    ASSERT_TRUE(ref_result.status.ok());

    const bool ref_dropped =
        ref_result.verdict.kind == runtime::Verdict::Kind::kDrop;
    ASSERT_EQ(p4_result->dropped, ref_dropped) << net::Ipv4ToString(daddr);
    if (!ref_dropped) {
      ASSERT_EQ(p4_result->egress_port,
                static_cast<int>(ref_result.verdict.egress_port));
      ASSERT_EQ(p4_pkt.eth().dst.ToUint64(), ref_pkt.eth().dst.ToUint64());
      ASSERT_EQ(p4_pkt.ip().ttl, ref_pkt.ip().ttl);
    }
  }
}

}  // namespace
}  // namespace gallium
