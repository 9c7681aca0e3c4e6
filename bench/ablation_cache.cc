// Ablation for the §7 table-cache extension: switch memory vs fast-path
// coverage. The L4 load balancer serves a working set of concurrent flows
// with progressively smaller switch caches; we report switch memory, the
// fast-path fraction, and evictions.
//
// Expected: the fast-path fraction stays near 1.0 while the cache covers
// the working set, then collapses once flows start evicting each other —
// the memory/performance trade-off the paper's §7 sketches.
#include <cstdio>

#include "bench_common.h"
#include "runtime/offloaded_middlebox.h"
#include "util/strings.h"
#include "workload/packet_gen.h"

int main() {
  using namespace gallium;
  const int kFlows = 512;
  const int kRounds = 20;

  std::printf(
      "Ablation (§7): switch table cache size vs fast-path coverage\n"
      "(L4 load balancer, %d concurrent flows, %d packets per flow)\n",
      kFlows, kRounds);
  bench::PrintRule(84);
  std::printf("%12s %14s %16s %12s %12s\n", "cache size", "switch mem",
              "fast-path frac", "cache misses", "evictions");
  bench::PrintRule(84);

  for (uint64_t cache : {0ull, 4096ull, 1024ull, 512ull, 256ull, 64ull,
                         16ull}) {
    auto spec = mbox::BuildLoadBalancer();
    if (!spec.ok()) return 1;
    const ir::StateIndex flows_map = spec->MapIndex("flows");
    runtime::OffloadedOptions options;
    options.serialize_wire = false;
    options.cache_entries_per_table = cache;
    auto mbx = runtime::OffloadedMiddlebox::Create(*spec, options);
    if (!mbx.ok()) {
      std::printf("%12llu  error: %s\n",
                  static_cast<unsigned long long>(cache),
                  mbx.status().ToString().c_str());
      continue;
    }

    Rng rng(4242);
    std::vector<net::FiveTuple> flows;
    for (int f = 0; f < kFlows; ++f) flows.push_back(workload::RandomFlow(rng));

    // Establish all flows, then rounds of data packets over the working set.
    for (const auto& flow : flows) {
      net::Packet syn = net::MakeTcpPacket(flow, net::kTcpSyn, 0);
      syn.set_ingress_port(mbox::kPortInternal);
      if (!(*mbx)->Process(syn).status.ok()) return 1;
    }
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& flow : flows) {
        net::Packet data = net::MakeTcpPacket(flow, net::kTcpAck, 512);
        data.set_ingress_port(mbox::kPortInternal);
        if (!(*mbx)->Process(data).status.ok()) return 1;
      }
    }

    const auto resources = (*mbx)->device().Resources();
    auto* table = (*mbx)->device().table(flows_map);
    const std::string label = cache == 0 ? "full" : std::to_string(cache);
    std::printf("%12s %14s %16.4f %12llu %12llu\n", label.c_str(),
                FormatBytes(resources.memory_bytes_used).c_str(),
                (*mbx)->FastPathFraction(),
                static_cast<unsigned long long>(
                    (*mbx)->counters().cache_misses->Value()),
                static_cast<unsigned long long>(
                    table != nullptr ? table->evictions() : 0));
  }
  bench::PrintRule(84);
  std::printf(
      "Expected: near-full fast-path coverage while the cache holds the\n"
      "working set (>= %d entries), FIFO thrash below it; memory shrinks\n"
      "proportionally to the cache size.\n",
      kFlows);
  return 0;
}
