// Figure 7: TCP microbenchmark throughput for the five middleboxes at
// packet sizes {100, 500, 1500} bytes. Offloaded Gallium middleboxes use a
// single server core; FastClick baselines run on 1, 2 and 4 cores. Every
// Gbps value in this section is a cost-model output (labeled `model`), so
// it is printed as is: a model has no trial-to-trial spread to report.
//
// Shape targets from the paper: Offloaded(1 core) outperforms Click-4c by
// 20-187%; the gap is largest for small packets; NAT/LB serve ~99.9% of
// packets on the switch; firewall/proxy 100%.
// The second section leaves the cost model and *measures* the multi-worker
// engine: established-flow data packets through the run-to-completion burst
// loop at 1/2/4/8 worker shards, reporting aggregate Mpps under the
// dedicated-cores model (run finishes when the busiest shard does). The
// 4-worker/1-worker scaling factor is the CI-gated number; absolute Mpps
// depends on the build machine and is informational.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "engine/engine.h"
#include "perf/harness.h"
#include "workload/packet_gen.h"

int main() {
  using namespace gallium;
  const perf::CostModel cost;
  const std::vector<int> kPacketSizes = {100, 500, 1500};

  bench::RunManifest manifest("figure7_throughput", 1234);
  manifest.SetConfig("num_flows", 20);

  std::printf("Figure 7: TCP microbenchmark throughput (Gbps, model)\n");
  bench::PrintRule(64);
  std::printf("%-16s %6s %10s %10s %10s %10s\n", "Middlebox", "Size",
              "Offloaded", "Click-4c", "Click-2c", "Click-1c");
  bench::PrintRule(64);

  for (const auto& entry : bench::PaperMiddleboxes()) {
    auto profile = perf::ProfileMiddlebox(entry.build, /*num_flows=*/20);
    if (!profile.ok()) {
      std::printf("%-16s PROFILE ERROR: %s\n", entry.display_name.c_str(),
                  profile.status().ToString().c_str());
      continue;
    }
    for (int size : kPacketSizes) {
      const double off =
          perf::OffloadedThroughputGbps(cost, *profile, size);
      std::printf("%-16s %6d %10.1f", entry.display_name.c_str(), size, off);
      manifest.RecordResult("bench_throughput_gbps",
                            {{"mbox", entry.display_name},
                             {"system", "offloaded"},
                             {"packet_bytes", std::to_string(size)}},
                            off, "TCP microbenchmark throughput, model");
      for (int cores : {4, 2, 1}) {
        const double click = perf::ClickThroughputGbps(
            cost, profile->baseline_stats, size, cores);
        std::printf(" %10.1f", click);
        manifest.RecordResult(
            "bench_throughput_gbps",
            {{"mbox", entry.display_name},
             {"system", "click-" + std::to_string(cores) + "c"},
             {"packet_bytes", std::to_string(size)}},
            click);
      }
      std::printf("\n");
    }
    std::printf("%-16s        fast-path fraction: %.4f\n", "",
                profile->fast_path_fraction);
    manifest.RecordResult("bench_fast_path_fraction",
                          {{"mbox", entry.display_name}},
                          profile->fast_path_fraction,
                          "share of packets served on the switch");
  }
  bench::PrintRule(64);
  std::printf(
      "Paper shape: Offloaded(1c) >= Click-4c by 20-187%%, largest gaps at\n"
      "small packet sizes; firewall and proxy never touch the server.\n");

  // --- Multi-core engine: measured aggregate throughput ---------------------
  const std::vector<int> kWorkerCounts = {1, 2, 4, 8};
  const int kEngineFlows = 256;
  const int kEnginePackets = 8192;
  const int kEngineTrials = 5;
  manifest.SetConfig("engine_flows", kEngineFlows);
  manifest.SetConfig("engine_measured_packets", kEnginePackets);
  manifest.SetConfig("engine_trials", kEngineTrials);

  std::printf(
      "\nMulti-core engine: measured aggregate Mpps "
      "(%d established flows, %d data packets, burst 32)\n",
      kEngineFlows, kEnginePackets);
  bench::PrintRule(78);
  std::printf("%-16s %10s %10s %10s %10s %12s\n", "Middlebox", "1w", "2w",
              "4w", "8w", "4w/1w");
  bench::PrintRule(78);

  for (const auto& entry : bench::PaperMiddleboxes()) {
    auto spec = entry.build();
    if (!spec.ok()) {
      std::printf("%-16s BUILD ERROR: %s\n", entry.display_name.c_str(),
                  spec.status().ToString().c_str());
      continue;
    }

    // Established-flow steady state: SYN + first data segment in warmup (no
    // FIN — a closed flow would re-enter the insert path), measured window
    // cycles the data segments.
    Rng trace_rng(777);
    std::vector<net::Packet> warmup;
    std::vector<net::Packet> flow_data;
    for (int f = 0; f < kEngineFlows; ++f) {
      const net::FiveTuple flow = workload::RandomFlow(trace_rng);
      std::vector<net::Packet> pkts = workload::TcpFlowPackets(flow, 2048);
      for (size_t i = 0; i + 1 < pkts.size(); ++i) {
        pkts[i].set_ingress_port(mbox::kPortInternal);
        warmup.push_back(pkts[i]);
      }
      net::Packet data = pkts[1];
      data.set_ingress_port(mbox::kPortInternal);
      flow_data.push_back(std::move(data));
    }
    std::vector<net::Packet> measured;
    for (int i = 0; i < kEnginePackets; ++i) {
      measured.push_back(flow_data[i % flow_data.size()]);
    }

    std::printf("%-16s", entry.display_name.c_str());
    double mpps_1w = 0, mpps_4w = 0;
    for (int workers : kWorkerCounts) {
      engine::EngineOptions options;
      options.workers = workers;
      options.burst = 32;
      auto eng = engine::Engine::Create(*spec, options);
      if (!eng.ok()) {
        std::printf(" ENGINE ERROR: %s\n", eng.status().ToString().c_str());
        break;
      }
      uint64_t now_ms = 1;
      (*eng)->Run(warmup, now_ms);
      now_ms += warmup.size();
      (*eng)->Run(measured, now_ms);  // warm the slot pool and caches
      now_ms += measured.size();
      // Best-of-N: scheduler preemption on a shared machine only ever adds
      // time, so the fastest trial is the least-perturbed estimate — the
      // standard min-time benchmarking estimator, and what makes the gated
      // scaling ratio reproducible in CI.
      double mpps = 0;
      for (int trial = 0; trial < kEngineTrials; ++trial) {
        const engine::RunReport report = (*eng)->Run(measured, now_ms);
        now_ms += measured.size();
        mpps = std::max(mpps, report.AggregateMpps());
      }
      if (workers == 1) mpps_1w = mpps;
      if (workers == 4) mpps_4w = mpps;
      std::printf(" %10.2f", mpps);
      manifest.RecordResult("bench_engine_mpps",
                            {{"mbox", entry.display_name},
                             {"workers", std::to_string(workers)}},
                            mpps,
                            "measured aggregate Mpps, dedicated-cores model");
    }
    const double scaling = mpps_1w > 0 ? mpps_4w / mpps_1w : 0;
    std::printf(" %11.2fx\n", scaling);
    manifest.RecordResult("bench_engine_scaling_x",
                          {{"mbox", entry.display_name}}, scaling,
                          "aggregate Mpps at 4 workers over 1 worker");
  }
  bench::PrintRule(78);
  std::printf(
      "Scaling target: >= 3x aggregate Mpps at 4 workers vs 1 (flow-hash\n"
      "imbalance and the shared-global broadcast bound it below 4x).\n");
  manifest.Write();
  return 0;
}
